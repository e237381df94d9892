//! Criterion microbench: instrumented-kernel trace generation rate (the
//! cost of producing simulator input, amortized across every experiment).
//! The `pr` and `cc` rows include building the T-OPT next-use oracle,
//! which every recording of those kernels pays.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use gpkernels::{run_kernel_windowed, Kernel, KernelInput};
use simcore::RecordingTracer;

fn bench_kernels(c: &mut Criterion) {
    let input = KernelInput::from_symmetric(gpgraph::gen::kron(14, 8, 7));

    let mut group = c.benchmark_group("kernels_trace");
    group.sample_size(10);
    const WINDOW: u64 = 200_000;
    group.throughput(Throughput::Elements(WINDOW));

    for kernel in [Kernel::Pr, Kernel::Cc, Kernel::Bfs, Kernel::Sssp] {
        group.bench_function(format!("record_{kernel}"), |b| {
            b.iter(|| {
                let mut rec = RecordingTracer::new(WINDOW);
                run_kernel_windowed(kernel, &input, 0, &mut rec);
                rec.finish()
            });
        });
    }

    group.finish();
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);
