//! The paper's headline claims, asserted against a moderate-scale run of
//! the reproduction (10 000 packets per cell — enough for stable p99).
//!
//! Each test quotes the claim it checks. These are the acceptance tests
//! of the reproduction: if one fails, the shape of some figure/table no
//! longer matches the paper.

use std::sync::OnceLock;

use virtio_fpga::experiments::{self, ExperimentParams, Matrix};
use virtio_fpga::{DriverKind, PAPER_PAYLOADS};

fn matrix() -> &'static std::sync::Mutex<Matrix> {
    static M: OnceLock<std::sync::Mutex<Matrix>> = OnceLock::new();
    M.get_or_init(|| {
        std::sync::Mutex::new(experiments::run_matrix(ExperimentParams {
            packets: 10_000,
            seed: 42,
            threads: vf_sim::default_threads(),
        }))
    })
}

#[test]
fn claim_comparable_or_better_mean_latency() {
    // "VirtIO drivers provide similar or slightly improved performance"
    let mut m = matrix().lock().unwrap();
    for &p in &PAPER_PAYLOADS {
        let v = m.cell(DriverKind::Virtio, p).total_summary();
        let x = m.cell(DriverKind::Xdma, p).total_summary();
        assert!(
            v.mean_us <= x.mean_us,
            "{p}B: VirtIO mean {} must not exceed XDMA {}",
            v.mean_us,
            x.mean_us
        );
    }
}

#[test]
fn claim_reduced_variance() {
    // "...with reduced variance" / "the VirtIO results show much lower
    // variance" (§V).
    let mut m = matrix().lock().unwrap();
    for &p in &PAPER_PAYLOADS {
        let v = m.cell(DriverKind::Virtio, p).total_summary();
        let x = m.cell(DriverKind::Xdma, p).total_summary();
        assert!(
            v.std_us < x.std_us,
            "{p}B: σ(VirtIO) {} vs σ(XDMA) {}",
            v.std_us,
            x.std_us
        );
        assert!(v.iqr_us() < x.iqr_us(), "{p}B IQR");
    }
}

#[test]
fn claim_virtio_wins_p95_and_p99() {
    // Table I: "VirtIO shows lower tail latencies at 95 and 99
    // percentiles."
    let mut m = matrix().lock().unwrap();
    for row in experiments::table1(&mut m) {
        assert!(row.virtio.p95_us < row.xdma.p95_us, "{}B p95", row.payload);
        assert!(row.virtio.p99_us < row.xdma.p99_us, "{}B p99", row.payload);
    }
}

#[test]
fn claim_p999_advantage_fades() {
    // "However, there isn't a significant difference when we approach
    // 99.9% tail latency." The gap at p99.9 must be far smaller (in
    // relative terms) than at p95.
    let mut m = matrix().lock().unwrap();
    let mut p95_gaps = 0.0;
    let mut p999_gaps = 0.0;
    for row in experiments::table1(&mut m) {
        p95_gaps += row.xdma.p95_us / row.virtio.p95_us;
        p999_gaps += row.xdma.p999_us / row.virtio.p999_us;
    }
    let n = PAPER_PAYLOADS.len() as f64;
    let (p95_ratio, p999_ratio) = (p95_gaps / n, p999_gaps / n);
    assert!(p95_ratio > 1.25, "p95 ratio {p95_ratio}");
    assert!(
        p999_ratio < p95_ratio && p999_ratio < 1.35,
        "p99.9 ratio {p999_ratio} must be close to 1 (p95 ratio {p95_ratio})"
    );
}

#[test]
fn claim_virtio_hardware_exceeds_software() {
    // Fig. 4 discussion: "the time taken by the hardware is higher than
    // the time for software with the VirtIO driver..."
    let mut m = matrix().lock().unwrap();
    for row in experiments::fig4(&mut m) {
        assert!(
            row.hw.mean_us > row.sw.mean_us,
            "{}B: hw {} vs sw {}",
            row.payload,
            row.hw.mean_us,
            row.sw.mean_us
        );
    }
}

#[test]
fn claim_xdma_software_exceeds_hardware() {
    // "...and vice versa with the XDMA driver."
    let mut m = matrix().lock().unwrap();
    for row in experiments::fig5(&mut m) {
        assert!(
            row.sw.mean_us > row.hw.mean_us,
            "{}B: sw {} vs hw {}",
            row.payload,
            row.sw.mean_us,
            row.hw.mean_us
        );
    }
}

#[test]
fn claim_software_latency_constant_across_payloads() {
    // "the average latency for the software stack remains virtually
    // constant throughout the range of payloads considered."
    let mut m = matrix().lock().unwrap();
    for driver in [DriverKind::Virtio, DriverKind::Xdma] {
        let rows = if driver == DriverKind::Virtio {
            experiments::fig4(&mut m)
        } else {
            experiments::fig5(&mut m)
        };
        let first = rows.first().unwrap().sw.mean_us;
        let last = rows.last().unwrap().sw.mean_us;
        assert!(
            (last - first).abs() < 2.0,
            "{}: sw drifted {first} → {last} µs over 64 B → 1 KiB",
            driver.name()
        );
    }
}

#[test]
fn claim_same_dma_engine_same_slope() {
    // §III-B3: both designs use the same PCIe IP/DMA engine, so the
    // payload slope of the round-trip latency must match across drivers.
    let mut m = matrix().lock().unwrap();
    let slope = |d: DriverKind, m: &mut Matrix| {
        let lo = m.cell(d, 64).total_summary().mean_us;
        let hi = m.cell(d, 1024).total_summary().mean_us;
        hi - lo
    };
    let sv = slope(DriverKind::Virtio, &mut m);
    let sx = slope(DriverKind::Xdma, &mut m);
    assert!(
        (sv - sx).abs() / sv.max(sx) < 0.15,
        "slopes differ: VirtIO +{sv} µs vs XDMA +{sx} µs over 64→1024 B"
    );
    // And the slope magnitude is in the paper's ballpark (~21 µs/KiB;
    // accept 15–30).
    assert!((15.0..30.0).contains(&sv), "VirtIO slope {sv}");
}

#[test]
fn claim_hw_counters_quantized_to_8ns() {
    // §III-B3: counters have 8 ns resolution.
    let mut m = matrix().lock().unwrap();
    let cell = m.cell(DriverKind::Virtio, 64);
    for &hw_us in cell.hw.raw().iter().take(500) {
        let ps = (hw_us * 1e6).round() as u64;
        assert_eq!(ps % 8_000, 0, "hw sample {hw_us}µs not on an 8ns grid");
    }
}

#[test]
fn table1_absolute_values_within_band() {
    // Shape fidelity: reproduced Table I cells within ±25% of the paper.
    let paper_v95 = [35.1, 33.6, 39.6, 44.1, 57.8];
    let paper_x95 = [51.3, 51.4, 51.5, 59.1, 72.8];
    let mut m = matrix().lock().unwrap();
    for (i, row) in experiments::table1(&mut m).iter().enumerate() {
        let dv = (row.virtio.p95_us - paper_v95[i]).abs() / paper_v95[i];
        let dx = (row.xdma.p95_us - paper_x95[i]).abs() / paper_x95[i];
        assert!(
            dv < 0.25,
            "{}B VirtIO p95 {} vs paper {}",
            row.payload,
            row.virtio.p95_us,
            paper_v95[i]
        );
        assert!(
            dx < 0.25,
            "{}B XDMA p95 {} vs paper {}",
            row.payload,
            row.xdma.p95_us,
            paper_x95[i]
        );
    }
}
