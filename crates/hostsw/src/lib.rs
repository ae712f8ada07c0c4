//! # vf-hostsw — host software stack model
//!
//! Everything that runs on the Fedora 37 host of the paper's testbed:
//!
//! * [`cost`] — the software cost model (syscalls, copies, IRQs,
//!   wakeups) with the host-noise model applied per step;
//! * [`packet`] — Ethernet/IPv4/UDP framing with real checksums;
//! * [`netcfg`] — routing table + ARP cache (manually populated, as the
//!   paper's §III-B1 describes);
//! * [`udp`] — the socket send/receive kernel paths;
//! * [`virtio_net`] — the in-kernel virtio-pci/virtio-net front-end
//!   driver (probe sequence, xmit path, NAPI receive) over the real
//!   `vf-virtio` rings, split or packed (experiment E17) as negotiated;
//! * [`virtio_blk`] — the in-kernel virtio-blk front end: 3-part
//!   request chains, queue-depth-driven outstanding requests, and the
//!   `SEG_MAX`/`RO`/`FLUSH` negotiation (experiment E24);
//! * [`virtio_mq`] — the `VIRTIO_NET_F_MQ` multi-queue front end: N
//!   queue pairs plus the control virtqueue (experiment E19), on either
//!   ring layout (E20);
//! * [`mq_ctrl`] — the ctrl-vq command serialization;
//! * [`multicore`] — per-CPU cost/scheduler contexts so each queue
//!   pair's NAPI work runs on its own simulated core;
//! * [`xdma_char`] — the vendor reference character-device driver
//!   (per-transfer pin/map, descriptor build, MMIO programming, ISR).
//!
//! The two driver models are the paper's two contenders; the testbed in
//! `virtio-fpga` sequences them against the same FPGA and link models.
//!
//! ```
//! use vf_hostsw::{build_udp_frame, parse_udp_frame, Ipv4Addr, MacAddr, UdpFlow};
//!
//! let flow = UdpFlow {
//!     src_mac: MacAddr([2, 0, 0, 0, 0, 1]),
//!     dst_mac: MacAddr([2, 0xFB, 0x0A, 0, 0, 1]),
//!     src_ip: Ipv4Addr::new(10, 0, 0, 1),
//!     dst_ip: Ipv4Addr::new(10, 0, 0, 2),
//!     src_port: 40_000,
//!     dst_port: 7,
//! };
//! let frame = build_udp_frame(&flow, 1, b"hello fpga", true);
//! let parsed = parse_udp_frame(&frame).unwrap();
//! assert_eq!(parsed.payload, b"hello fpga");
//! assert!(parsed.udp_csum_ok);
//! ```

#![warn(missing_docs)]

pub mod cost;
pub mod mq_ctrl;
pub mod multicore;
pub mod netcfg;
pub mod packet;
pub mod udp;
pub mod virtio_blk;
pub mod virtio_console;
pub mod virtio_mq;
pub mod virtio_net;
pub mod xdma_char;

pub use cost::{CostEngine, HostCosts, HOST_CPU_GHZ};
pub use multicore::{CpuContext, MultiCoreHost};
pub use netcfg::{ArpCache, Route, RoutingTable};
pub use packet::{
    build_udp_frame, parse_udp_frame, udp_checksum, Ipv4Addr, MacAddr, ParseError, ParsedUdp,
    UdpFlow, UDP_OVERHEAD,
};
pub use udp::{SockError, UdpStack};
pub use virtio_blk::{probe_blk, BlkDone, BlkProbeOutcome, BlkSubmit, VirtioBlkDriver};
pub use virtio_console::VirtioConsoleDriver;
pub use virtio_mq::{probe_mq, MqProbeOutcome, VirtioNetMqDriver, CTRL_QUEUE_SIZE};
pub use virtio_net::{
    probe, ProbeError, ProbeOutcome, RxFrame, VirtioNetDriver, VirtioTransport, XmitResult,
};
pub use xdma_char::{TransferSetup, XdmaCharDriver};
