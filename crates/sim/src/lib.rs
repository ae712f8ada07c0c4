//! # vf-sim — discrete-event simulation kernel
//!
//! The foundation layer of the VirtIO host-FPGA reproduction testbed:
//!
//! * [`time`] — the global picosecond time base shared by the host clock
//!   (1 ns resolution) and the FPGA fabric clock (8 ns @ 125 MHz);
//! * [`engine`] — a deterministic discrete-event loop generic over a
//!   world-defined message type;
//! * [`wheel`] — the hierarchical timing-wheel queue behind the engine
//!   (slab-allocated, allocation-free in steady state, with a sorted
//!   overflow level for far-future events);
//! * [`baseline`] — the pre-wheel binary-heap engine, preserved as the
//!   differential-testing reference and bench baseline;
//! * [`rng`] — seeded, stream-splittable randomness so every run is a pure
//!   function of `(seed, configuration)`;
//! * [`noise`] — the host-OS residual-noise model (per-step lognormal
//!   jitter + rare Pareto spikes) that produces the paper's latency
//!   variance and tails;
//! * [`stats`] — exact-percentile sample sets, streaming moments, and
//!   histograms matching the paper's reporting (mean ± σ, p95/p99/p99.9);
//! * [`sweep`] — order-preserving parallel parameter sweeps.
//!
//! Nothing in this crate knows about PCIe, VirtIO, or FPGAs; those models
//! live in the crates layered above (see DESIGN.md §2).
//!
//! ```
//! use vf_sim::{Scheduler, Simulation, Time, World};
//!
//! // A world that relays a token three times, 5 µs apart.
//! struct Relay(Vec<Time>);
//! impl World for Relay {
//!     type Msg = u8;
//!     fn deliver(&mut self, now: Time, hops: u8, sched: &mut Scheduler<u8>) {
//!         self.0.push(now);
//!         if hops > 0 {
//!             sched.after(Time::from_us(5), hops - 1);
//!         }
//!     }
//! }
//!
//! let mut sim = Simulation::new(Relay(Vec::new()));
//! sim.schedule(Time::from_us(1), 2);
//! sim.run_to_idle();
//! assert_eq!(
//!     sim.world.0,
//!     vec![Time::from_us(1), Time::from_us(6), Time::from_us(11)]
//! );
//! ```

#![warn(missing_docs)]

pub mod baseline;
pub mod engine;
pub mod noise;
pub mod rng;
pub mod stats;
pub mod sweep;
pub mod time;
pub mod wheel;

pub use engine::{RunOutcome, Scheduler, Simulation, World};
pub use noise::{Jitter, NoiseModel, SpikeClass};
pub use rng::SimRng;
pub use stats::{Histogram, SampleSet, Summary, Welford};
pub use sweep::{default_threads, parallel_map, MAX_THREADS};
pub use time::{Time, FPGA_CYCLE};
pub use wheel::TimingWheel;
