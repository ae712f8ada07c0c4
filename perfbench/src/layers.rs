//! Per-layer measurement: a counting trace sink, and short timed calls
//! into each layer crate's public functions at the workloads' call
//! shapes.
//!
//! Each microcall is timed with tracing off, then run a few more times
//! under the counting sink so its records per call share a base with
//! the records per packet the traced workload pass counts.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use vf_hostsw::{CostEngine, HostCosts};
use vf_pcie::{HostMemory, LinkConfig, PcieLink};
use vf_sim::{Scheduler, SimRng, Simulation, Time, World};
use vf_tenant::{ArbiterPolicy, QosArbiter, TenantClass};
use vf_trace::{Kind, Layer, TraceEvent, TraceSink};
use vf_virtio::{
    BufferSpec, DeviceQueue, DriverQueue, PackedBuffer, PackedDeviceQueue, PackedDriverQueue,
    VecMemory, VirtqueueLayout,
};
use vf_xdma::{single_descriptor, ChannelDir, VecCardMemory, XdmaEngine};
use virtio_fpga::Calibration;

/// Trace records tallied by layer and name. A span counts once: its
/// `End` record is not counted.
#[derive(Clone, Debug, Default)]
pub struct Tally(BTreeMap<(Layer, &'static str), u64>);

impl Tally {
    /// Records of `layer`.
    pub fn layer(&self, layer: Layer) -> u64 {
        self.0
            .iter()
            .filter(|((l, _), _)| *l == layer)
            .map(|(_, n)| n)
            .sum()
    }

    /// Add another tally into this one.
    pub fn merge(&mut self, other: &Tally) {
        for (k, n) in &other.0 {
            *self.0.entry(*k).or_default() += n;
        }
    }

    /// `(layer, name, count)` rows in layer order.
    pub fn rows(&self) -> impl Iterator<Item = (Layer, &'static str, u64)> + '_ {
        self.0.iter().map(|(&(l, name), &n)| (l, name, n))
    }
}

struct CountingSink(Rc<RefCell<Tally>>);

impl TraceSink for CountingSink {
    fn record(&mut self, ev: &TraceEvent) {
        if !matches!(ev.kind, Kind::End { .. }) {
            *self
                .0
                .borrow_mut()
                .0
                .entry((ev.layer, ev.name))
                .or_default() += 1;
        }
    }
}

/// Uninstall the trace session if `f` panics, so the thread-local is
/// clean for whatever runs next.
struct TraceGuard;

impl Drop for TraceGuard {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let _ = vf_trace::uninstall();
        }
    }
}

/// Run `f` with a counting trace sink installed on this thread.
pub fn counted<R>(f: impl FnOnce() -> R) -> (R, Tally) {
    let tally = Rc::new(RefCell::new(Tally::default()));
    vf_trace::install(Box::new(CountingSink(Rc::clone(&tally))));
    let guard = TraceGuard;
    let value = f();
    drop(guard);
    let _ = vf_trace::uninstall();
    let tally = tally.borrow().clone();
    (value, tally)
}

/// One microcall's cost and the records it emits.
#[derive(Clone, Debug)]
pub struct Micro {
    /// Metric name, e.g. `pcie.dma_read_1k.ns`.
    pub name: &'static str,
    /// Wall nanoseconds per call (fastest of ~1 ms rounds).
    pub ns: f64,
    /// Trace records of [`RECORD_CALLS`] calls under the counting sink.
    pub records: Tally,
}

/// Calls under the counting sink for the records-per-call figure.
pub const RECORD_CALLS: u64 = 16;

impl Micro {
    /// Records of `layer` per call.
    pub fn per_call(&self, layer: Layer) -> f64 {
        self.records.layer(layer) as f64 / RECORD_CALLS as f64
    }
}

/// Time `call` for about `budget_s` seconds and report the fastest
/// nanoseconds per unit over rounds of about a millisecond. `call`
/// returns how many units it performed.
fn time_units(budget_s: f64, mut call: impl FnMut() -> u64) -> f64 {
    // Warm up and size a round to ~1 ms.
    let t0 = Instant::now();
    let mut calls = 0u64;
    while t0.elapsed().as_secs_f64() < 0.002 || calls < 4 {
        call();
        calls += 1;
    }
    let per_call = t0.elapsed().as_secs_f64() / calls as f64;
    let round = ((0.001 / per_call) as u64).max(1);
    let mut samples = Vec::new();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < budget_s || samples.len() < 5 {
        let t = Instant::now();
        let mut n = 0u64;
        for _ in 0..round {
            n += call();
        }
        samples.push(t.elapsed().as_nanos() as f64 / n as f64);
    }
    crate::fastest(&samples)
}

fn micro(name: &'static str, budget_s: f64, mut call: impl FnMut() -> u64) -> Micro {
    let ns = time_units(budget_s, &mut call);
    let ((), records) = counted(|| {
        for _ in 0..RECORD_CALLS {
            call();
        }
    });
    Micro { name, ns, records }
}

/// Ping-pong world keeping `depth` events pending: each delivery
/// schedules one successor until the budget runs out.
struct PingPong {
    left: u64,
}

impl World for PingPong {
    type Msg = u32;
    fn deliver(&mut self, _now: Time, msg: u32, sched: &mut Scheduler<u32>) {
        if self.left > 0 {
            self.left -= 1;
            // Spread successors over a few wheel slots, as the worlds'
            // link and cost delays do.
            sched.after(
                Time::from_ns(100 + u64::from(msg % 7) * 37),
                msg.wrapping_add(1),
            );
        }
    }
}

fn events(depth: u32) -> u64 {
    const EVENTS: u64 = 4_096;
    let mut sim = Simulation::new(PingPong { left: EVENTS });
    for i in 0..depth {
        sim.schedule(Time::from_ns(u64::from(i) * 3), i);
    }
    sim.run_to_idle();
    black_box(sim.events_delivered())
}

/// Every microcall, each timed for about `budget_s` seconds.
pub fn microcalls(budget_s: f64) -> Vec<Micro> {
    let cal = Calibration::fedora37_alinx();
    let mut out = Vec::new();

    // pcie: the serial worlds' 1 KiB payload moves, the MQ walkers'
    // pipelined 256 B reads (multi-tag, depth 4, relaxed ordering as
    // `run_mq` configures them), and one 128K blk segment.
    for (name, len) in [
        ("pcie.dma_read_1k.ns", 1024usize),
        ("pcie.dma_read_128k.ns", 128 << 10),
    ] {
        let mut link = PcieLink::new(cal.link.clone());
        let mut now = Time::ZERO;
        out.push(micro(name, budget_s, || {
            now = link.dma_read(now, 0x1000, len);
            1
        }));
    }
    {
        let mut link = PcieLink::new(cal.link.clone());
        let mut now = Time::ZERO;
        out.push(micro("pcie.dma_write_1k.ns", budget_s, || {
            now = link.dma_write(now, 0x1000, 1024);
            1
        }));
    }
    {
        let mut cfg: LinkConfig = cal.link.clone();
        cfg.multi_tag = true;
        cfg.max_outstanding_np = 4;
        cfg.relaxed_ordering = true;
        let mut link = PcieLink::new(cfg);
        let mut now = Time::ZERO;
        let mut tag = 0usize;
        // Keep four reads in flight: issue at `now`, then advance `now`
        // to the completion of the read issued four calls earlier, and
        // prune the wire history there as the worlds' event loops do.
        let mut inflight = std::collections::VecDeque::new();
        out.push(micro("pcie.dma_read_np_256.ns", budget_s, || {
            tag = (tag + 1) % 8;
            link.advance_epoch(now);
            link.select_dma_context(tag);
            inflight.push_back(link.dma_read_np(now, 0x1000 + tag as u64 * 256, 256));
            if inflight.len() == 4 {
                now = inflight.pop_front().expect("four in flight");
            }
            1
        }));
    }

    // sim: engine ping-pong at the serial and the MQ number of pending
    // events, and one calibrated noise step.
    out.push(micro("sim.event_depth1.ns", budget_s, || events(1)));
    out.push(micro("sim.event_depth128.ns", budget_s, || events(128)));
    {
        let noise = Calibration::fedora37_noise();
        let mut rng = SimRng::new(7);
        out.push(micro("sim.noise_step.ns", budget_s, || {
            black_box(noise.sw_step(&mut rng, Time::from_ns(300)));
            1
        }));
    }

    // hostsw: one cost-model step (noise plus accounting).
    {
        let costs = HostCosts::fedora37();
        let base = costs.syscall_entry;
        let mut eng = CostEngine::new(costs, Calibration::fedora37_noise(), SimRng::new(9));
        out.push(micro("hostsw.cost_step.ns", budget_s, || {
            black_box(eng.step(base));
            1
        }));
    }

    // virtio: add, pop, complete, pop_used on a 256-entry ring.
    {
        let mut mem = VecMemory::new(1 << 20);
        let layout = VirtqueueLayout::contiguous(0x1000, 256);
        let mut drv = DriverQueue::new(&mut mem, layout, true);
        let mut dev = DeviceQueue::new(layout, true, false);
        out.push(micro("virtio.split_cycle.ns", budget_s, || {
            let head = drv
                .add_and_publish(&mut mem, &[BufferSpec::readable(0x10_000, 64)])
                .expect("ring drained every cycle");
            let chain = dev
                .pop_chain(&mem)
                .expect("well-formed chain")
                .expect("chain published");
            let old = dev.complete(&mut mem, chain.head, 0);
            black_box(dev.should_interrupt(&mem, old));
            let used = drv.pop_used(&mut mem).expect("completed");
            assert_eq!(used.id, u32::from(head));
            1
        }));
    }
    {
        const RING: u64 = 0x1000;
        let mut mem = VecMemory::new(1 << 20);
        let mut drv = PackedDriverQueue::new(RING, 256);
        let mut dev = PackedDeviceQueue::new(RING, 256);
        let buf = [PackedBuffer {
            addr: 0x10_000,
            len: 64,
            writable: false,
        }];
        out.push(micro("virtio.packed_cycle.ns", budget_s, || {
            let id = drv.add(&mut mem, &buf).expect("ring drained every cycle");
            let chain = dev.try_take(&mem).expect("chain published");
            dev.complete(&mut mem, &chain, 0);
            let used = drv.pop_used(&mem).expect("completed");
            assert_eq!(used.id, id);
            1
        }));
    }

    // xdma: one 1 KiB host-to-card descriptor run.
    {
        let mut link = PcieLink::new(cal.link.clone());
        let mut host = HostMemory::new(0, 1 << 20);
        let mut card = VecCardMemory::new(1 << 16);
        host.write(0x1_0000, &[7u8; 1024]);
        single_descriptor(0x1_0000, 0, 1024).write_to(&mut host, 0x2000);
        let mut eng = XdmaEngine::new(ChannelDir::H2C);
        let mut now = Time::ZERO;
        out.push(micro("xdma.h2c_1k.ns", budget_s, || {
            let done = eng
                .run(now, 0x2000, &mut link, &mut host, &mut card)
                .expect("valid descriptor");
            now = done.completed_at;
            1
        }));
    }

    // tenant: request, next_grant and begin_service over 64 WFQ classes;
    // the unit is one grant of a queued tenant.
    {
        const CLASSES: u16 = 64;
        let classes = vec![
            TenantClass {
                weight: 1,
                priority: 0
            };
            CLASSES as usize
        ];
        let mut arb = QosArbiter::new(ArbiterPolicy::WeightedShare, classes);
        let mut now = Time::ZERO;
        let walk = Time::from_us(1);
        out.push(micro("tenant.grant_cycle.ns", budget_s, || {
            // Tenant 0 holds the engine, so every other doorbell queues.
            arb.begin_service(0, now, now + Time::from_us(100));
            for t in 1..CLASSES {
                black_box(arb.request(t, now));
            }
            let mut grants = 0;
            while let Some(t) = arb.next_grant() {
                arb.begin_service(t, now, now + walk);
                grants += 1;
            }
            now += Time::from_us(200);
            grants
        }));
    }
    out
}
