//! Weeks 3–4: the profiling lab — find the bottleneck.
//!
//! Runs three deliberately different workloads on a simulated T4 and asks
//! the profiler to classify each: a transfer-bound pipeline, a
//! memory-bound strided kernel vs. its coalesced fix, and a compute-bound
//! matmul. Exports a Chrome trace at the end (open in chrome://tracing or
//! Perfetto).
//!
//! ```text
//! cargo run --example profiling_lab
//! ```

use sagemaker_gpu_workflows::sagegpu::gpu::prelude::*;
use sagemaker_gpu_workflows::sagegpu::profiler::bottleneck::analyze;
use sagemaker_gpu_workflows::sagegpu::profiler::chrome_trace::ChromeTrace;
use sagemaker_gpu_workflows::sagegpu::profiler::opstats::OpStatsTable;
use sagemaker_gpu_workflows::sagegpu::profiler::roofline::roofline;
use sagemaker_gpu_workflows::sagegpu::profiler::timeline::Timeline;

fn fresh_gpu() -> Gpu {
    Gpu::new(0, DeviceSpec::t4())
}

fn report(gpu: &Gpu, label: &str) {
    let timeline = Timeline::from_recorder(gpu.recorder());
    let r = analyze(&timeline, 0, gpu.spec());
    println!(
        "{label}: {:?}  (kernel {:.0}%, transfer {:.0}%, idle {:.0}%)",
        r.class,
        100.0 * r.kernel_fraction,
        100.0 * r.transfer_fraction,
        100.0 * r.idle_fraction
    );
    for advice in &r.recommendations {
        println!("    -> {advice}");
    }
}

fn main() {
    let n: usize = 1 << 20;

    // Scenario A: ping-ponging data over PCIe for a trivial kernel.
    let gpu = fresh_gpu();
    for _ in 0..4 {
        let buf = gpu.htod(&vec![1.0f32; n]).expect("fits");
        let mut out = gpu.alloc_zeroed::<f32>(n).expect("fits");
        LaunchSpec::new(
            "axpy",
            LaunchConfig::for_elements(n as u64, 256),
            KernelProfile::elementwise(n as u64, 2, 12),
        )
        .map(&gpu, &mut out, |i, _| 2.0 * buf.host_view()[i] + 1.0)
        .expect("valid");
        let _ = gpu.dtoh(&out).expect("fits");
    }
    report(&gpu, "A. ping-pong pipeline  ");

    // Scenario B: the same traffic with strided vs coalesced access.
    let gpu = fresh_gpu();
    let cfg = LaunchConfig::for_elements(n as u64, 256);
    let strided = KernelProfile::elementwise(n as u64, 1, 12).with_access(AccessPattern::Strided);
    let coalesced = KernelProfile::elementwise(n as u64, 1, 12);
    let (t_strided, _) = gpu.kernel_duration_ns(&cfg, &strided).expect("valid");
    let (t_coalesced, _) = gpu.kernel_duration_ns(&cfg, &coalesced).expect("valid");
    println!(
        "B. access patterns      : strided {} us vs coalesced {} us ({:.1}x)",
        t_strided / 1000,
        t_coalesced / 1000,
        t_strided as f64 / t_coalesced as f64
    );

    // Scenario C: a big tiled matmul living at the FLOP roof.
    let gpu = fresh_gpu();
    LaunchSpec::new(
        "sgemm_2048",
        LaunchConfig::for_matrix(2048, 2048, 16),
        KernelProfile::matmul(2048, 2048, 2048),
    )
    .run(&gpu, || ())
    .expect("valid");
    report(&gpu, "C. 2048^3 matmul       ");

    // Scenario D: the fix for Scenario A — double-buffered streams
    // overlapping copies with compute (cudaMemcpyAsync + streams).
    let gpu = fresh_gpu();
    let copy_stream = gpu.create_stream();
    let compute_stream = gpu.create_stream();
    for _ in 0..4 {
        let _ = gpu.htod_on(copy_stream, &vec![1.0f32; n]).expect("fits");
        LaunchSpec::new(
            "axpy",
            LaunchConfig::for_elements(n as u64, 256),
            KernelProfile::elementwise(n as u64, 2, 12),
        )
        .on(compute_stream)
        .run(&gpu, || ())
        .expect("valid");
    }
    let overlapped = gpu.sync_streams();
    println!(
        "D. streamed overlap    : same work as A finishes in {} us (A-style serial pays the full sum)",
        overlapped / 1000
    );

    // The per-op table and the exported trace.
    let gpu = fresh_gpu();
    let buf = gpu.htod(&vec![0f32; n]).expect("fits");
    let mut out = gpu.alloc_zeroed::<f32>(n).expect("fits");
    gpu.range("lab-step", || {
        LaunchSpec::new(
            "square",
            LaunchConfig::for_elements(n as u64, 256),
            KernelProfile::elementwise(n as u64, 1, 8),
        )
        .map(&gpu, &mut out, |i, _| {
            buf.host_view()[i] * buf.host_view()[i]
        })
        .expect("valid");
    });
    println!(
        "\nper-op stats:\n{}",
        OpStatsTable::from_events(&gpu.recorder().snapshot()).render()
    );

    // The roofline view of everything this lab launched.
    println!(
        "{}",
        roofline(gpu.spec(), &gpu.recorder().snapshot()).render()
    );

    let trace = ChromeTrace::new().gpu(&gpu.recorder().snapshot()).to_json();
    let path = std::env::temp_dir().join("sagegpu_trace.json");
    std::fs::write(&path, trace).expect("writable temp dir");
    println!("chrome trace written to {}", path.display());
}
