//! Optional protocol message tracing.
//!
//! A bounded ring buffer of message events, useful for
//! debugging protocol flows and for the `tree_shapes`-style experiment
//! narratives. Disabled by default (zero overhead beyond a branch).

use dirtree_core::msg::Msg;
use dirtree_core::types::{Addr, NodeId};
use dirtree_sim::Cycle;
use std::collections::VecDeque;

/// One traced message delivery.
#[derive(Clone, Debug)]
pub struct TraceEvent {
    pub at: Cycle,
    /// Network delivery time (equals `at` for events recorded without
    /// timing, e.g. the checker's logical replays).
    pub arrival: Cycle,
    pub src: NodeId,
    pub dst: NodeId,
    pub addr: Addr,
    pub label: &'static str,
}

impl std::fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{:>8}] {:>3} -> {:<3} {:<16} addr {:#x}",
            self.at, self.src, self.dst, self.label, self.addr
        )
    }
}

/// A bounded message trace.
pub struct MsgTrace {
    capacity: usize,
    events: VecDeque<TraceEvent>,
    dropped: u64,
}

impl MsgTrace {
    /// Trace up to `capacity` events.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        Self {
            capacity,
            events: VecDeque::with_capacity(capacity),
            dropped: 0,
        }
    }

    /// Record a send.
    pub fn record(&mut self, at: Cycle, dst: NodeId, msg: &Msg) {
        self.record_timed(at, at, dst, msg);
    }

    /// Record a send with its network delivery time (send hook path).
    pub fn record_timed(&mut self, at: Cycle, arrival: Cycle, dst: NodeId, msg: &Msg) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(TraceEvent {
            at,
            arrival,
            src: msg.src,
            dst,
            addr: msg.addr,
            label: msg.kind.label(),
        });
    }

    /// Events currently retained, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Events evicted from the ring because of the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Render the retained events in Chrome trace-event format
    /// (`chrome://tracing` / Perfetto `trace_events` JSON): one complete
    /// ("X") event per message, one timeline row (`tid`) per sending node,
    /// timestamps in simulated cycles. Output is deterministic — events in
    /// recorded order, no wall-clock or environment input.
    pub fn chrome_trace_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"msg\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                 \"pid\":0,\"tid\":{},\"args\":{{\"addr\":{},\"dst\":{}}}}}",
                e.label,
                e.at,
                e.arrival.saturating_sub(e.at).max(1),
                e.src,
                e.addr,
                e.dst
            ));
        }
        out.push_str("]}");
        out
    }

    /// Render the retained events as one line per message.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.dropped > 0 {
            out.push_str(&format!(
                "... {} earlier events dropped ...\n",
                self.dropped
            ));
        }
        for e in &self.events {
            out.push_str(&e.to_string());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dirtree_core::msg::MsgKind;

    fn msg(addr: Addr, src: NodeId) -> Msg {
        Msg {
            addr,
            src,
            kind: MsgKind::ReadReq { requester: src },
        }
    }

    #[test]
    fn records_and_renders() {
        let mut t = MsgTrace::new(8);
        t.record(10, 0, &msg(5, 3));
        t.record(12, 3, &msg(5, 0));
        let s = t.render();
        assert!(s.contains("read_req"));
        assert!(s.contains("3 -> 0"));
        assert_eq!(t.events().count(), 2);
    }

    #[test]
    fn record_timed_keeps_arrival_and_chrome_export_is_valid_shape() {
        let mut t = MsgTrace::new(8);
        t.record_timed(10, 25, 2, &msg(5, 3));
        t.record(30, 0, &msg(5, 2));
        let evs: Vec<_> = t.events().collect();
        assert_eq!(evs[0].arrival, 25);
        assert_eq!(evs[1].arrival, evs[1].at, "record() defaults arrival");
        let json = t.chrome_trace_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"traceEvents\":["));
        assert!(json.contains("\"name\":\"read_req\""));
        assert!(json.contains("\"ts\":10"));
        assert!(json.contains("\"dur\":15"));
        // Zero-duration events get a minimum visible width of 1.
        assert!(json.contains("\"ts\":30,\"dur\":1"));
    }

    #[test]
    fn ring_bounds_memory() {
        let mut t = MsgTrace::new(4);
        for i in 0..10 {
            t.record(i, 0, &msg(1, 1));
        }
        assert_eq!(t.events().count(), 4);
        assert_eq!(t.dropped(), 6);
        assert!(t.render().contains("6 earlier events dropped"));
        // Oldest retained is event at t=6.
        assert_eq!(t.events().next().unwrap().at, 6);
    }
}
