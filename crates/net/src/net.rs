//! The point-to-point interconnect.
//!
//! Section 4 of the paper: "we assume a point-to-point network with a
//! constant latency of 100 cycles but model contention at the network
//! interfaces." [`Network`] reproduces exactly that: the fabric itself is
//! contention-free and adds [`NetConfig::latency`] to every message, while
//! each node has one outbound and one inbound FCFS network-interface
//! port whose occupancy depends on whether the message carries data.
//!
//! All per-message state (both NI ports and the send count, which is
//! attributed to the *sender*) lives in one `NodeNi` per node. Two
//! message operations exist:
//!
//! * [`Network::send`] — a synchronous transaction hop: occupies the
//!   sender's out-NI *and* the receiver's in-NI;
//! * [`Network::post`] — a posted (fire-and-forget) message, used for
//!   eviction write-backs: it occupies only the sender's out-NI and
//!   sinks at the destination's memory controller without occupying the
//!   in-NI port.

use crate::msg::MsgKind;
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
}

impl Default for NetConfig {
    fn default() -> NetConfig {
        NetConfig {
            latency: Cycles(100),
            control_occupancy: Cycles(4),
            data_occupancy: Cycles(8),
        }
    }
}

impl NetConfig {
    #[inline]
    fn occupancy(&self, kind: MsgKind) -> Cycles {
        if kind.carries_data() {
            self.data_occupancy
        } else {
            self.control_occupancy
        }
    }
}

/// One node's complete network-interface state: both FCFS ports plus the
/// number of messages the node has sent.
#[derive(Clone, Debug, Default)]
struct NodeNi {
    out: Resource,
    inbound: Resource,
    sent: u64,
}

impl NodeNi {
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
            nis: vec![NodeNi::default(); nodes],
        }
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
        let occ = self.config.occupancy(kind);
        let departed = {
            let src = &mut self.nis[from.0 as usize];
            src.sent += 1;
            src.out.acquire(now, occ) + occ
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
        let occ = self.config.occupancy(kind);
        let src = &mut self.nis[from.0 as usize];
        src.sent += 1;
        src.out.acquire(now, occ) + occ + self.config.latency
    }

    /// Total messages sent.
    #[must_use]
    pub fn total_sends(&self) -> u64 {
        self.nis.iter().map(|ni| ni.sent).sum()
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
        assert_eq!(t, Cycles(108), "4 out-NI + 100 fabric + 4 in-NI");
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
        assert_eq!(n.total_sends(), 3);
        n.post(Cycles(0), NodeId(3), NodeId(0), MsgKind::WriteBack);
        assert_eq!(n.total_sends(), 4);
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
        assert_eq!(n.total_sends(), 1);
        // ...but leaves the receiver's in-NI untouched: a synchronous
        // arrival right behind it sees an idle port.
        let t2 = n.send(Cycles(0), NodeId(2), NodeId(1), MsgKind::GetShared);
        assert_eq!(t2, Cycles(108));
    }
}
