//! The point-to-point interconnect.
//!
//! Section 4 of the paper: "we assume a point-to-point network with a
//! constant latency of 100 cycles but model contention at the network
//! interfaces." [`Network`] reproduces exactly that: the fabric itself is
//! contention-free and adds [`NetConfig::latency`] to every message, while
//! each node has one outbound and one inbound FCFS network-interface
//! port whose occupancy depends on the message's size class.
//!
//! All per-message state (both NI ports and the send counters, which are
//! attributed to the *sender*) lives in one `NodeNi` per node. Two
//! message operations exist:
//!
//! * [`Network::send`] — a synchronous transaction hop: occupies the
//!   sender's out-NI *and* the receiver's in-NI;
//! * [`Network::post`] — a posted (fire-and-forget) message, used for
//!   eviction write-backs: it occupies only the sender's out-NI and
//!   sinks at the destination's memory controller without occupying the
//!   in-NI port.

use crate::msg::{MsgKind, SizeClass};
use rnuma_mem::addr::NodeId;
use rnuma_sim::{Cycles, Resource};

/// Interconnect timing parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NetConfig {
    /// One-way fabric latency (paper: 100 cycles).
    pub latency: Cycles,
    /// NI occupancy for a control message.
    pub control_occupancy: Cycles,
    /// NI occupancy for a message carrying one 32-byte block.
    pub data_occupancy: Cycles,
    /// NI occupancy for a page-sized migration message.
    pub page_occupancy: Cycles,
}

impl Default for NetConfig {
    fn default() -> NetConfig {
        NetConfig {
            latency: Cycles(100),
            control_occupancy: Cycles(4),
            data_occupancy: Cycles(8),
            page_occupancy: Cycles(512),
        }
    }
}

impl NetConfig {
    #[inline]
    fn occupancy(&self, class: SizeClass) -> Cycles {
        match class {
            SizeClass::Control => self.control_occupancy,
            SizeClass::Data => self.data_occupancy,
            SizeClass::Page => self.page_occupancy,
        }
    }
}

/// One node's complete network-interface state: both FCFS ports plus the
/// node's (sender-attributed) message counters.
#[derive(Clone, Debug)]
struct NodeNi {
    out: Resource,
    inbound: Resource,
    sent_by_kind: [u64; MsgKind::COUNT],
}

impl NodeNi {
    fn new() -> NodeNi {
        NodeNi {
            out: Resource::new("ni-out"),
            inbound: Resource::new("ni-in"),
            sent_by_kind: [0; MsgKind::COUNT],
        }
    }

    /// Messages this node has sent, of any kind.
    fn total_sent(&self) -> u64 {
        self.sent_by_kind.iter().sum()
    }

    /// Queueing delay imposed by this node's two NI ports.
    fn wait(&self) -> Cycles {
        self.out.total_wait() + self.inbound.total_wait()
    }
}

/// The constant-latency fabric plus per-node NI ports.
///
/// # Example
///
/// ```
/// use rnuma_mem::addr::NodeId;
/// use rnuma_net::msg::MsgKind;
/// use rnuma_net::net::{NetConfig, Network};
/// use rnuma_sim::Cycles;
///
/// let mut net = Network::new(8, NetConfig::default());
/// let arrival = net.send(Cycles(0), NodeId(0), NodeId(1), MsgKind::GetShared);
/// // 4 cycles out-NI + 100 fabric + 4 cycles in-NI.
/// assert_eq!(arrival, Cycles(108));
/// ```
#[derive(Debug)]
pub struct Network {
    config: NetConfig,
    nis: Vec<NodeNi>,
}

impl Network {
    /// Creates a network connecting `nodes` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero.
    #[must_use]
    pub fn new(nodes: usize, config: NetConfig) -> Network {
        assert!(nodes > 0, "network needs at least one node");
        Network {
            config,
            nis: (0..nodes).map(|_| NodeNi::new()).collect(),
        }
    }

    /// Number of nodes attached.
    #[must_use]
    pub fn nodes(&self) -> usize {
        self.nis.len()
    }

    /// The configured timing parameters.
    #[must_use]
    pub fn config(&self) -> NetConfig {
        self.config
    }

    /// Sends one synchronous message, returning its delivery time at
    /// `to`.
    ///
    /// The sender's outbound NI is occupied first (queueing behind other
    /// departures), the fabric adds its constant latency, and the
    /// receiver's inbound NI is occupied on arrival (queueing behind
    /// other arrivals). The returned time is when the payload is
    /// available to the destination's protocol controller.
    ///
    /// # Panics
    ///
    /// Panics if `from == to` (nodes never message themselves) or either
    /// id is out of range.
    pub fn send(&mut self, now: Cycles, from: NodeId, to: NodeId, kind: MsgKind) -> Cycles {
        assert_ne!(from, to, "loopback messages are a protocol bug");
        let occ = self.config.occupancy(kind.size_class());
        let departed = {
            let src = &mut self.nis[from.0 as usize];
            let t = src.out.acquire(now, occ) + occ;
            src.sent_by_kind[kind.index()] += 1;
            t
        };
        let at_dest = departed + self.config.latency;
        self.nis[to.0 as usize].inbound.acquire(at_dest, occ) + occ
    }

    /// Posts one fire-and-forget message (an eviction write-back),
    /// returning its arrival time at `to`.
    ///
    /// Posted messages occupy the sender's outbound NI and traverse the
    /// fabric, but sink directly at the destination's memory controller
    /// without occupying its inbound NI port and without any reply —
    /// only sender-side state is touched.
    ///
    /// # Panics
    ///
    /// Panics if `from == to` or `from` is out of range.
    pub fn post(&mut self, now: Cycles, from: NodeId, to: NodeId, kind: MsgKind) -> Cycles {
        assert_ne!(from, to, "loopback messages are a protocol bug");
        let occ = self.config.occupancy(kind.size_class());
        let src = &mut self.nis[from.0 as usize];
        let departed = src.out.acquire(now, occ) + occ;
        src.sent_by_kind[kind.index()] += 1;
        departed + self.config.latency
    }

    /// The uncontended one-way cost of a synchronous message of `kind`,
    /// for latency budgeting (2 NI occupancies + fabric latency).
    #[must_use]
    pub fn uncontended(&self, kind: MsgKind) -> Cycles {
        let occ = self.config.occupancy(kind.size_class());
        occ + self.config.latency + occ
    }

    /// Messages sent so far, by kind (summed over all senders).
    #[must_use]
    pub fn sends_of(&self, kind: MsgKind) -> u64 {
        self.nis
            .iter()
            .map(|ni| ni.sent_by_kind[kind.index()])
            .sum()
    }

    /// Total messages sent.
    #[must_use]
    pub fn total_sends(&self) -> u64 {
        self.nis.iter().map(NodeNi::total_sent).sum()
    }

    /// Total queueing delay imposed by all NIs (a contention measure).
    #[must_use]
    pub fn total_ni_wait(&self) -> Cycles {
        self.nis.iter().map(NodeNi::wait).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net() -> Network {
        Network::new(8, NetConfig::default())
    }

    #[test]
    fn uncontended_control_message_timing() {
        let mut n = net();
        let t = n.send(Cycles(0), NodeId(0), NodeId(7), MsgKind::GetShared);
        assert_eq!(t, Cycles(108));
        assert_eq!(n.uncontended(MsgKind::GetShared), Cycles(108));
    }

    #[test]
    fn data_messages_occupy_longer() {
        let mut n = net();
        let t = n.send(Cycles(0), NodeId(0), NodeId(1), MsgKind::DataShared);
        assert_eq!(t, Cycles(116));
    }

    #[test]
    fn outbound_contention_serializes_departures() {
        let mut n = net();
        let t1 = n.send(Cycles(0), NodeId(0), NodeId(1), MsgKind::GetShared);
        let t2 = n.send(Cycles(0), NodeId(0), NodeId(2), MsgKind::GetShared);
        assert_eq!(t1, Cycles(108));
        assert_eq!(t2, Cycles(112), "second departure waits 4 cycles");
    }

    #[test]
    fn inbound_contention_serializes_arrivals() {
        let mut n = net();
        let t1 = n.send(Cycles(0), NodeId(0), NodeId(3), MsgKind::GetShared);
        let t2 = n.send(Cycles(0), NodeId(1), NodeId(3), MsgKind::GetShared);
        assert_eq!(t1, Cycles(108));
        assert_eq!(t2, Cycles(112), "second arrival queues at the in-NI");
    }

    #[test]
    fn distinct_pairs_do_not_interfere() {
        let mut n = net();
        let t1 = n.send(Cycles(0), NodeId(0), NodeId(1), MsgKind::GetShared);
        let t2 = n.send(Cycles(0), NodeId(2), NodeId(3), MsgKind::GetShared);
        assert_eq!(t1, t2);
    }

    #[test]
    fn statistics_accumulate() {
        let mut n = net();
        n.send(Cycles(0), NodeId(0), NodeId(1), MsgKind::GetShared);
        n.send(Cycles(0), NodeId(1), NodeId(0), MsgKind::DataShared);
        n.send(Cycles(0), NodeId(2), NodeId(0), MsgKind::GetShared);
        assert_eq!(n.sends_of(MsgKind::GetShared), 2);
        assert_eq!(n.sends_of(MsgKind::DataShared), 1);
        assert_eq!(n.sends_of(MsgKind::WriteBack), 0);
        assert_eq!(n.total_sends(), 3);
    }

    #[test]
    fn quiet_network_has_no_wait() {
        let mut n = net();
        n.send(Cycles(0), NodeId(0), NodeId(1), MsgKind::GetShared);
        n.send(Cycles(1000), NodeId(0), NodeId(1), MsgKind::GetShared);
        assert_eq!(n.total_ni_wait(), Cycles::ZERO);
    }

    #[test]
    #[should_panic(expected = "loopback")]
    fn loopback_panics() {
        net().send(Cycles(0), NodeId(0), NodeId(0), MsgKind::GetShared);
    }

    #[test]
    fn posted_message_skips_the_inbound_port() {
        let mut n = net();
        // A posted write-back arrives after out-NI + fabric only.
        let t = n.post(Cycles(0), NodeId(0), NodeId(1), MsgKind::WriteBack);
        assert_eq!(t, Cycles(8 + 100));
        // It is still counted as a send...
        assert_eq!(n.sends_of(MsgKind::WriteBack), 1);
        // ...but leaves the receiver's in-NI untouched: a synchronous
        // arrival right behind it sees an idle port.
        let t2 = n.send(Cycles(0), NodeId(2), NodeId(1), MsgKind::GetShared);
        assert_eq!(t2, Cycles(108));
    }
}
