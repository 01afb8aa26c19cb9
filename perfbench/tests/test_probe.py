"""The host-speed probe and its guard against busy program threads."""

import threading

from bench import PROBE_CPU_SHARE_MAX, host_probe


def test_probe_flags_a_busy_thread_beside_it():
    stop = threading.Event()

    def spin():
        while not stop.is_set():
            pass

    thread = threading.Thread(target=spin)
    thread.start()
    try:
        _, share = host_probe()
    finally:
        stop.set()
        thread.join()
    assert share > PROBE_CPU_SHARE_MAX


def test_probe_alone_passes_the_guard():
    wall, share = host_probe()
    assert wall > 0
    assert share < PROBE_CPU_SHARE_MAX
