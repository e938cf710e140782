import threading

from sparsedil import instrumentation


def test_nested_scopes_all_see_each_event():
    with instrumentation.counting() as outer:
        instrumentation.add_modmul(3)
        with instrumentation.counting() as inner:
            instrumentation.add_modmul(5)
            instrumentation.add_xof_bytes(7)
        instrumentation.add_swar_steps(11)
    instrumentation.add_modmul(100)          # no scope active: nobody counts
    assert (inner.modmul, inner.xof_bytes, inner.swar_steps) == (5, 7, 0)
    assert (outer.modmul, outer.xof_bytes, outer.swar_steps) == (8, 7, 11)


def test_scopes_count_only_their_own_thread():
    n_threads = 3
    barrier = threading.Barrier(n_threads, timeout=30)
    seen = {}

    def worker(t):
        with instrumentation.counting() as outer:
            barrier.wait()                   # every scope is open before anyone counts
            for _ in range(50):
                instrumentation.add_modmul(t + 1)
            with instrumentation.counting() as inner:
                instrumentation.add_xof_bytes(10 * (t + 1))
            barrier.wait()                   # nobody closes before everyone has counted
        seen[t] = (outer.snapshot(), inner.snapshot())

    threads = [threading.Thread(target=worker, args=(t,)) for t in range(n_threads)]
    for th in threads:
        th.start()
    for th in threads:
        th.join(timeout=30)
        assert not th.is_alive()
    for t in range(n_threads):
        outer, inner = seen[t]
        assert (outer.modmul, outer.xof_bytes) == (50 * (t + 1), 10 * (t + 1))
        assert (inner.modmul, inner.xof_bytes) == (0, 10 * (t + 1))
