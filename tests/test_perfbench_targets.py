def test_every_traced_name_is_callable(perfbench_tracer):
    # perfbench/tracer.py wraps these functions by name; one renamed or
    # deleted here would silently drop out of every traced benchmark run
    tracer = perfbench_tracer.Tracer().install()
    tracer.uninstall()
    assert tracer.absent == []
