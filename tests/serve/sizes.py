"""A 12-job stream for the serve determinism / backend-equivalence
tests: :data:`repro.serve.bench.SIZES`' shape at a tenth of its length,
so a test can serve it a dozen times."""

SMALL_STREAM = dict(
    count=12, rate=2000.0, max_pending=32, max_live_per_tenant=3,
    elephant=dict(m=128, k=128, n=128, tile=32, at=0.001),
    gemm=dict(m=48, k=48, n=48, tile=32),
    sort_n=20_000, spmv_rows=512, hotspot=dict(n=64, tile=32))
