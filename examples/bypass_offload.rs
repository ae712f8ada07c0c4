//! Driver-bypass offload (§III-A): "an additional interface on the
//! VirtIO controller that allows the user logic to request data
//! transfers to/from host memory bypassing the VirtIO driver."
//!
//! Demonstrates a streaming offload: the FPGA pulls a work buffer from
//! host memory, reduces it in fabric, and pushes the result back — no
//! virtqueue, no doorbell, no interrupt, no syscall. Compares per-op
//! latency against the full driver path.
//!
//! ```sh
//! cargo run --release --example bypass_offload
//! ```

use vf_fpga::user_logic::UdpEcho;
use vf_fpga::{Persona, VirtioFpgaDevice};
use vf_pcie::{HostMemory, LinkConfig, PcieLink};
use vf_sim::Time;
use vf_virtio::net::VirtioNetConfig;
use virtio_fpga::experiments::{self, ExperimentParams};

fn main() {
    // The standard experiment-grade comparison table first.
    let rows = experiments::bypass(ExperimentParams {
        packets: 3_000,
        seed: 42,
        threads: vf_sim::default_threads(),
    });
    println!("bypass DMA vs full driver path:");
    println!(
        "{:>7} {:>10} {:>10} {:>12} {:>22}",
        "size", "read(us)", "write(us)", "roundtrip", "driver path 1KiB (us)"
    );
    for r in &rows {
        println!(
            "{:>6}B {:>10.2} {:>10.2} {:>12.2} {:>22.1}",
            r.size, r.read_us, r.write_us, r.round_trip_us, r.driver_path_us
        );
    }

    // A concrete offload: sum 16 KiB of telemetry in fabric and write an
    // 8-byte result back, repeatedly, measuring sustained rate.
    let mut mem = HostMemory::testbed_default();
    let mut link = PcieLink::new(LinkConfig::gen2_x2());
    let mut device = VirtioFpgaDevice::new(
        Persona::Net {
            cfg: VirtioNetConfig::testbed_default(),
        },
        0,
        &[64, 64],
        Box::new(UdpEcho::default()),
    );
    const CHUNK: usize = 16 * 1024;
    let src = mem.alloc(CHUNK, 4096);
    let dst = mem.alloc(8, 8);
    let data: Vec<u8> = (0..CHUNK).map(|i| (i * 37 % 251) as u8).collect();
    HostMemory::write(&mut mem, src, &data);
    let expected: u64 = data.iter().map(|&b| b as u64).sum();

    let mut now = Time::from_us(1);
    let t0 = now;
    let iters = 64u64;
    for _ in 0..iters {
        let (chunk, t_read) = device.bypass_read(now, src, CHUNK, &mem, &mut link);
        let sum: u64 = chunk.iter().map(|&b| b as u64).sum();
        assert_eq!(sum, expected);
        // Reduction in fabric: 8 bytes/cycle through an adder tree.
        let t_sum = t_read + vf_sim::FPGA_CYCLE * (CHUNK as u64 / 8);
        now = device.bypass_write(t_sum, dst, &sum.to_le_bytes(), &mut mem, &mut link);
    }
    assert_eq!(vf_virtio::GuestMemory::read_u64(&mem, dst), expected);
    let elapsed = now - t0;
    let mb = (iters as f64 * CHUNK as f64) / 1e6;
    println!(
        "\nstreaming offload: {iters} × {CHUNK} B reductions in {elapsed}, \
         {:.1} MB/s sustained, result verified in host memory",
        mb / (elapsed.as_us_f64() / 1e6)
    );
}
