//! Pipelined (windowed) workloads — extension E12.
//!
//! The paper's experiment is strictly request-response: one packet in
//! flight, so every packet costs exactly one doorbell and one interrupt,
//! and VirtIO's notification-suppression machinery never engages (E7
//! shows it is latency-neutral there). This module adds the workload
//! where that machinery matters: the application keeps a **window** of
//! requests outstanding, as a SmartNIC client would.
//!
//! Under pipelining the VirtIO transport batches naturally — one
//! doorbell covers a burst of publishes (the device's `avail_event`
//! suppresses the rest), one interrupt covers a batch of completions —
//! while the XDMA character-device flow cannot pipeline at all: each
//! `write()`/`read()` pair holds the calling thread for the full
//! transfer (one channel per direction, §III-B2), so its throughput is
//! pinned to `1 / round-trip`.

use vf_fpga::{bar0, MmioEvent};
use vf_sim::{SampleSet, Simulation, Time, World};
use vf_virtio::net;

use crate::inflight::{InFlight, PayloadLayout, Pending};
use crate::testbed::{DriverKind, Testbed, TestbedConfig};

/// Result of a pipelined run.
pub struct ThroughputResult {
    /// Window depth used.
    pub depth: usize,
    /// Packets completed.
    pub packets: usize,
    /// Sustained throughput, packets/second.
    pub pps: f64,
    /// Per-packet latency samples (send → delivered), µs.
    pub latency: SampleSet,
    /// Doorbells rung (may be ≪ packets under pipelining).
    pub doorbells: u64,
    /// Interrupts taken (likewise).
    pub irqs: u64,
    /// Echo verification failures (must be 0).
    pub verify_failures: u64,
}

impl ThroughputResult {
    /// Doorbells per packet.
    pub fn doorbells_per_packet(&self) -> f64 {
        self.doorbells as f64 / self.packets as f64
    }

    /// Interrupts per packet.
    pub fn irqs_per_packet(&self) -> f64 {
        self.irqs as f64 / self.packets as f64
    }
}

/// Events of the pipelined VirtIO flow.
enum Ev {
    /// Application pump: refill the window, then block.
    Pump,
    /// Doorbell lands in the device.
    Doorbell,
    /// RX interrupt reaches the host.
    RxIrq,
}

struct PipelinedWorld {
    inner: crate::testbed::VirtioParts,
    depth: usize,
    to_send: usize,
    received: usize,
    in_flight: usize,
    seq: u32,
    pending: InFlight<Pending>,
    /// Scratch payload: each send draws into it, each echo is checked
    /// against its regeneration in it.
    payload: Vec<u8>,
    latency: SampleSet,
    verify_failures: u64,
    /// Pending doorbell coalescing: at most one Doorbell event in flight.
    cpu_free: Time,
    app_blocked: bool,
}

impl PipelinedWorld {
    fn new(cfg: &TestbedConfig, depth: usize) -> Self {
        assert!(depth >= 1);
        assert!(
            depth <= cfg.options.queue_size as usize / 2,
            "window deeper than TX slots"
        );
        PipelinedWorld {
            inner: crate::testbed::VirtioParts::new(cfg),
            depth,
            to_send: cfg.packets,
            received: 0,
            in_flight: 0,
            seq: 0,
            pending: InFlight::new(),
            payload: vec![0; cfg.payload.max(4)],
            latency: SampleSet::with_capacity(cfg.packets),
            verify_failures: 0,
            cpu_free: Time::ZERO,
            app_blocked: false,
        }
    }

    /// Send as many packets as the window allows, starting at time `t`.
    /// Returns `(time after sends, doorbell arrival if one must fire)`.
    fn refill(&mut self, mut t: Time) -> (Time, Option<Time>) {
        let mut doorbell_at = None;
        while self.in_flight < self.depth && self.to_send > 0 {
            // Payload: sequence number + deterministic filler.
            self.pending.send(
                PayloadLayout::FillAfterStamp,
                &mut self.inner.payload_rng,
                self.seq,
                t,
                &mut self.payload,
            );

            let (frame, cpu) = self
                .inner
                .stack
                .sendto(
                    self.inner.fpga_ip,
                    40_000,
                    7,
                    &self.payload,
                    false,
                    &mut self.inner.cost,
                )
                .expect("send path configured");
            t += cpu;
            let res = self
                .inner
                .driver
                .xmit(&mut self.inner.mem, &frame, &mut self.inner.cost);
            t += res.cpu;
            if res.notify {
                let off =
                    bar0::NOTIFY + u64::from(net::TX_QUEUE) * u64::from(bar0::NOTIFY_MULTIPLIER);
                let ev = self
                    .inner
                    .device
                    .mmio_write(off, 2, u64::from(net::TX_QUEUE));
                debug_assert_eq!(ev, Some(MmioEvent::Notify(net::TX_QUEUE)));
                let arrival = self.inner.link.mmio_write(t, 2);
                t += self.inner.cost.step(self.inner.cost.costs.mmio_write_cpu);
                // Coalesce: the latest arrival wins (a posted write per
                // kick; the device drains everything pending per event).
                doorbell_at = Some(doorbell_at.map_or(arrival, |d: Time| d.max(arrival)));
            }
            self.in_flight += 1;
            self.to_send -= 1;
            self.seq += 1;
        }
        (t, doorbell_at)
    }
}

impl World for PipelinedWorld {
    type Msg = Ev;

    fn deliver(&mut self, now: Time, msg: Ev, sched: &mut vf_sim::Scheduler<Ev>) {
        match msg {
            Ev::Pump => {
                let (mut t, doorbell) = self.refill(now);
                if let Some(at) = doorbell {
                    sched.at(at, Ev::Doorbell);
                }
                // Block in recvfrom until the next interrupt.
                t += self.inner.cost.step(self.inner.cost.costs.syscall_entry);
                t += self.inner.cost.step(self.inner.cost.costs.block_schedule);
                self.cpu_free = t;
                self.app_blocked = true;
            }
            Ev::Doorbell => {
                let out = self.inner.device.process_tx_notify(
                    now,
                    net::TX_QUEUE,
                    &mut self.inner.mem,
                    &mut self.inner.link,
                );
                for resp in &out.responses {
                    let rxo = self.inner.device.deliver_response(
                        resp.ready_at,
                        net::RX_QUEUE,
                        resp,
                        &mut self.inner.mem,
                        &mut self.inner.link,
                    );
                    if let Some(irq_at) = rxo.irq_at {
                        // EVENT_IDX batches: typically only the first
                        // completion of a batch interrupts.
                        sched.at(irq_at, Ev::RxIrq);
                    }
                }
            }
            Ev::RxIrq => {
                let mut t = now.max(self.cpu_free) + self.inner.cost.blocking_extra();
                t += self.inner.cost.step(self.inner.cost.costs.hardirq_entry);
                t += self.inner.cost.step(self.inner.cost.costs.softirq_latency);
                let (frames, cpu) = self
                    .inner
                    .driver
                    .napi_poll(&mut self.inner.mem, &mut self.inner.cost);
                t += cpu;
                if frames.is_empty() {
                    return;
                }
                if self.app_blocked {
                    t += self.inner.cost.step(self.inner.cost.costs.wakeup_to_run);
                    self.app_blocked = false;
                }
                for rx in frames {
                    match self.inner.stack.netif_receive(
                        &rx.frame,
                        40_000,
                        false,
                        &mut self.inner.cost,
                    ) {
                        Ok((parsed, cpu)) => {
                            t += cpu;
                            t += self
                                .inner
                                .stack
                                .recvfrom_return(parsed.payload.len(), &mut self.inner.cost);
                            let layout = PayloadLayout::FillAfterStamp;
                            let Some((t0, matched)) =
                                self.pending
                                    .complete(layout, &parsed.payload, &mut self.payload)
                            else {
                                // Not an outstanding sequence number.
                                self.verify_failures += 1;
                                continue;
                            };
                            self.verify_failures += u64::from(!matched);
                            self.latency.push((t - t0).quantize(Time::from_ns(1)));
                            self.in_flight -= 1;
                            self.received += 1;
                        }
                        Err(e) => panic!("receive path failed: {e:?}"),
                    }
                }
                self.cpu_free = t;
                if self.to_send > 0 || self.in_flight > 0 {
                    sched.at(t, Ev::Pump);
                }
            }
        }
    }
}

/// Run a pipelined VirtIO workload with the given window depth.
pub fn run_pipelined(cfg: &TestbedConfig, depth: usize) -> ThroughputResult {
    assert_eq!(cfg.driver, DriverKind::Virtio, "only VirtIO pipelines");
    let world = PipelinedWorld::new(cfg, depth);
    let mut sim = Simulation::new(world);
    sim.schedule(Time::from_us(10), Ev::Pump);
    sim.run_expect_idle(Time::from_secs(3600), 500_000_000, "pipeline");
    let elapsed = sim.now() - Time::from_us(10);
    let w = sim.world;
    assert_eq!(w.received, cfg.packets, "packets lost");
    ThroughputResult {
        depth,
        packets: cfg.packets,
        pps: cfg.packets as f64 / (elapsed.as_us_f64() / 1e6),
        latency: w.latency,
        doorbells: w.inner.device.stats.notifications,
        irqs: w.inner.device.stats.irqs_sent,
        verify_failures: w.verify_failures,
    }
}

/// The serial XDMA throughput for contrast: `1 / mean round trip`.
pub fn xdma_serial_pps(cfg: &TestbedConfig) -> f64 {
    let mut xcfg = cfg.clone();
    xcfg.driver = DriverKind::Xdma;
    let mut r = Testbed::new(xcfg).run();
    1e6 / r.total_summary().mean_us
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testbed::TestbedOptions;

    fn cfg(packets: usize, payload: usize) -> TestbedConfig {
        TestbedConfig {
            options: TestbedOptions::default(),
            ..TestbedConfig::paper(DriverKind::Virtio, payload, packets, 31)
        }
    }

    #[test]
    fn depth_one_matches_serial_behaviour() {
        let r = run_pipelined(&cfg(500, 256), 1);
        assert_eq!(r.verify_failures, 0);
        assert_eq!(r.packets, 500);
        // Depth 1 is request-response: one doorbell and irq per packet.
        assert_eq!(r.doorbells, 500);
        assert_eq!(r.irqs, 500);
    }

    #[test]
    fn deeper_windows_increase_throughput() {
        let p1 = run_pipelined(&cfg(1_000, 256), 1);
        let p8 = run_pipelined(&cfg(1_000, 256), 8);
        let p32 = run_pipelined(&cfg(1_000, 256), 32);
        assert_eq!(p8.verify_failures, 0);
        assert!(
            p8.pps > 1.5 * p1.pps,
            "depth 8: {} vs depth 1: {} pps",
            p8.pps,
            p1.pps
        );
        assert!(p32.pps >= p8.pps * 0.9, "no collapse at depth 32");
    }

    #[test]
    fn pipelining_coalesces_events() {
        let p16 = run_pipelined(&cfg(2_000, 256), 16);
        assert!(
            p16.irqs_per_packet() < 0.8,
            "irqs/packet = {}",
            p16.irqs_per_packet()
        );
        assert!(
            p16.doorbells_per_packet() < 0.8,
            "doorbells/packet = {}",
            p16.doorbells_per_packet()
        );
    }

    #[test]
    fn pipelined_latency_exceeds_serial() {
        // Queueing delay: deeper windows trade latency for throughput.
        let mut p1 = run_pipelined(&cfg(800, 256), 1);
        let mut p16 = run_pipelined(&cfg(800, 256), 16);
        assert!(p16.latency.mean() > p1.latency.mean());
        let _ = (p1.summary_once(), p16.summary_once());
    }

    impl ThroughputResult {
        fn summary_once(&mut self) -> vf_sim::Summary {
            self.latency.summary()
        }
    }

    #[test]
    fn xdma_serial_rate_matches_round_trip() {
        let pps = xdma_serial_pps(&cfg(500, 256));
        assert!((15_000.0..30_000.0).contains(&pps), "pps = {pps}");
    }
}
