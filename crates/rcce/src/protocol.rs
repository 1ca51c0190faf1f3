//! Point-to-point protocols: RCCE blocking and iRCCE pipelined.
//!
//! Both implement [`PointToPoint`], the substitution seam the paper
//! exploits: same-device pairs keep the on-chip protocol while
//! inter-device pairs get a host-assisted scheme (vSCC crate).
//!
//! Synchronization uses one-byte wrapping counters (see
//! [`crate::layout`]): the sender counts chunks/packets made available in
//! `sent[src]` at the receiver, the receiver counts consumed ones in
//! `ready[dest]` at the sender, and each side busy-waits on its *local*
//! flag for the counter to reach a target.

use des::fields;
use des::trace::Category;

use crate::layout::{self, counter_reached, CHUNK_BYTES, PIPELINE_SLOTS, SLOT_BYTES};
use crate::session::RankCtx;

pub use scc::remote::LocalBoxFuture;

/// A point-to-point transport between two ranks.
///
/// `flow` is the message's provenance id (allocated by the session, see
/// [`crate::session::SessionInner::next_send_flow`]); implementations
/// stamp it on every traced hop so the whole path of one message can be
/// reconstructed.
pub trait PointToPoint {
    /// Blocking send of `data` from `ctx`'s rank to `dest`. Returns when
    /// the receiver has consumed the message (RCCE semantics, Fig. 2a).
    fn send<'a>(
        &'a self,
        ctx: &'a RankCtx,
        dest: usize,
        data: &'a [u8],
        flow: u64,
    ) -> LocalBoxFuture<'a, ()>;

    /// Blocking receive of `buf.len()` bytes from `src`.
    fn recv<'a>(
        &'a self,
        ctx: &'a RankCtx,
        src: usize,
        buf: &'a mut [u8],
        flow: u64,
    ) -> LocalBoxFuture<'a, ()>;

    /// Human-readable protocol name (used in experiment output).
    fn name(&self) -> &'static str;
}

/// [`des::span!`] for one protocol hop of `ctx`'s rank: the session's
/// trace and clock, the rank's label, [`Category::Protocol`]. Like
/// `span!`, the body may `.await` and must not `return`.
///
/// ```ignore
/// hop!(ctx, "recv_poll", f, [flag = "sent", target = cnt], {
///     flag_wait_reached(ctx, layout::sent_flag(my, src), cnt).await;
/// });
/// ```
#[macro_export]
macro_rules! hop {
    ($ctx:expr, $kind:expr, $flow:expr, [$($fields:tt)*], $body:expr $(,)?) => {
        $crate::__des::span!(
            $ctx.session.trace(),
            $ctx.core.sim(),
            $crate::__des::trace::Category::Protocol,
            $kind,
            $flow,
            || &$ctx.label,
            [$($fields)*],
            $body
        )
    };
}

/// Wait on a local counter flag until it reaches `target`
/// (wrap-around-safe), polling with the same invalidate-read sequence RCCE
/// uses.
///
/// When the session configures a poll watchdog, a wait whose total budget
/// expires aborts the run with a diagnosed timeout (rank, flag address,
/// target vs. last-seen counter, cycles waited) and a bounded trace tail
/// on stderr — an infinite hang caused by a lost flag write becomes a
/// [`des::SimError::Aborted`] instead.
pub async fn flag_wait_reached(ctx: &RankCtx, addr: scc::geometry::MpbAddr, target: u8) {
    let budget = ctx.session.poll_watchdog();
    let start = ctx.session.sim().now();
    loop {
        ctx.session.rcce_metrics().poll_scans.inc();
        let v = ctx.core.flag_read(addr).await;
        if counter_reached(v, target) {
            return;
        }
        // Sleep until the flag line is touched again.
        let region = ctx.session.device_of_core(addr.owner).mpb(addr.owner.core).clone();
        let off = addr.offset as usize;
        let wait = region.wait_until(|| counter_reached(region.read_byte(off), target));
        match budget {
            None => wait.await,
            Some(budget) => {
                let deadline = start + budget;
                let timeout = ctx.session.sim().delay_until(deadline);
                if let des::sync::Either::Right(()) = des::sync::race(wait, timeout).await {
                    poll_watchdog_trip(ctx, addr, target, start);
                    // The abort surfaces from `Sim::run`; park this task.
                    std::future::pending::<()>().await;
                }
            }
        }
    }
}

/// Diagnose a tripped poll watchdog: count it, trace it, dump a bounded
/// trace tail, and abort the simulation with the full diagnosis.
fn poll_watchdog_trip(ctx: &RankCtx, addr: scc::geometry::MpbAddr, target: u8, start: des::Cycles) {
    let session = &ctx.session;
    let sim = session.sim();
    let now = sim.now();
    let current =
        session.device_of_core(addr.owner).mpb(addr.owner.core).read_byte(addr.offset as usize);
    let me = ctx.rank;
    let msg = format!(
        "poll watchdog: rank {me} waited {} cycles on flag {addr} \
         (target {target}, last seen {current})",
        now - start
    );
    session.note_poll_timeout();
    session.trace().instant(
        now,
        Category::Fault,
        "poll_watchdog",
        None,
        || &ctx.label,
        || {
            fields![
                rank = me,
                offset = addr.offset,
                target = target,
                seen = current,
                waited = now - start
            ]
        },
    );
    eprintln!("{msg}");
    session.trace().with_events(|events| {
        if !events.is_empty() {
            eprintln!("recent trace events:");
            for ev in &events[events.len().saturating_sub(25)..] {
                eprintln!("  {ev}");
            }
        }
    });
    sim.abort(msg);
}

/// Split `len` bytes into chunk ranges of at most `chunk` bytes; a
/// zero-length message still produces one empty range (pure
/// synchronization round).
pub fn chunk_ranges(
    len: usize,
    chunk: usize,
) -> impl ExactSizeIterator<Item = (usize, usize)> + Clone {
    assert!(chunk > 0);
    // A zero-length transfer still makes one (empty) protocol round.
    let n = len.div_ceil(chunk).max(1);
    (0..n).map(move |i| (i * chunk, ((i + 1) * chunk).min(len)))
}

/// RCCE's default blocking protocol: *local put / remote get* (Fig. 2a).
///
/// Per chunk: the sender copies private → local MPB, bumps the `sent`
/// counter at the receiver, and spins until the receiver's `ready` counter
/// confirms consumption; the receiver spins on `sent`, invalidates L1,
/// copies remote MPB → private, and bumps `ready` at the sender.
///
/// The protocol stages chunks in a *window* of the payload area. By
/// default that is the whole area (largest chunks, the paper's 8 KiB
/// split); in a multi-device vSCC session the on-chip protocols are
/// confined to the send half so that inbound host-delivered traffic
/// (remote-put / vDMA receive slots) never collides with a concurrent
/// on-chip send.
pub struct BlockingProtocol {
    window_off: usize,
    chunk: usize,
}

impl Default for BlockingProtocol {
    fn default() -> Self {
        BlockingProtocol { window_off: 0, chunk: CHUNK_BYTES }
    }
}

impl BlockingProtocol {
    /// Stage chunks only within `[window_off, window_off + chunk)` of the
    /// payload area.
    pub fn confined(window_off: usize, chunk: usize) -> Self {
        assert!(window_off + chunk <= CHUNK_BYTES);
        assert!(chunk > 0);
        BlockingProtocol { window_off, chunk }
    }

    /// The chunk size in use.
    pub fn chunk(&self) -> usize {
        self.chunk
    }
}

impl PointToPoint for BlockingProtocol {
    fn send<'a>(
        &'a self,
        ctx: &'a RankCtx,
        dest: usize,
        data: &'a [u8],
        flow: u64,
    ) -> LocalBoxFuture<'a, ()> {
        Box::pin(async move {
            let me = ctx.rank;
            let my = ctx.who();
            let peer = ctx.session.who(dest);
            let f = Some(flow);
            for (lo, hi) in chunk_ranges(data.len(), self.chunk) {
                hop!(ctx, "chunk", f, [bytes = hi - lo, dest = dest], {
                    hop!(ctx, "sender_put", f, [bytes = hi - lo, target = "local_mpb"], {
                        ctx.core.put(layout::payload(my, self.window_off), &data[lo..hi], f).await;
                    });
                    let cnt = ctx.next_sent(dest);
                    ctx.session.trace().instant(
                        ctx.core.sim().now(),
                        Category::Protocol,
                        "flag_set",
                        f,
                        || &ctx.label,
                        || fields![flag = "sent", src = me, value = cnt, at_rank = dest],
                    );
                    ctx.core.flag_write(layout::sent_flag(peer, me), cnt, f).await;
                    hop!(ctx, "mpb_wait", f, [flag = "ready", target = cnt], {
                        flag_wait_reached(ctx, layout::ready_flag(my, dest), cnt).await;
                    });
                });
            }
        })
    }

    fn recv<'a>(
        &'a self,
        ctx: &'a RankCtx,
        src: usize,
        buf: &'a mut [u8],
        flow: u64,
    ) -> LocalBoxFuture<'a, ()> {
        Box::pin(async move {
            let me = ctx.rank;
            let my = ctx.who();
            let peer = ctx.session.who(src);
            let f = Some(flow);
            for (lo, hi) in chunk_ranges(buf.len(), self.chunk) {
                let cnt = ctx.recv_count.borrow()[src].wrapping_add(1);
                hop!(ctx, "recv_poll", f, [flag = "sent", target = cnt], {
                    flag_wait_reached(ctx, layout::sent_flag(my, src), cnt).await;
                });
                hop!(ctx, "recv_get", f, [bytes = hi - lo, src = src, sent_count = cnt], {
                    // The payload lines may be cached from the previous chunk.
                    ctx.core.cl1invmb().await;
                    ctx.core.get(layout::payload(peer, self.window_off), &mut buf[lo..hi], f).await;
                });
                ctx.recv_count.borrow_mut()[src] = cnt;
                ctx.core.flag_write(layout::ready_flag(peer, me), cnt, f).await;
                ctx.session.trace().instant(
                    ctx.core.sim().now(),
                    Category::Protocol,
                    "flag_set",
                    f,
                    || &ctx.label,
                    || fields![flag = "ready", src = me, value = cnt, at_rank = src],
                );
            }
        })
    }

    fn name(&self) -> &'static str {
        "RCCE blocking (local put / remote get)"
    }
}

/// iRCCE's pipelined protocol (Fig. 2b): the message is cut into packets
/// bounced through the two payload slots, so the sender's put of packet
/// *p+1* overlaps the receiver's get of packet *p*. A packet fills one
/// slot.
pub struct PipelinedProtocol {
    window_off: usize,
    slot_bytes: usize,
}

impl Default for PipelinedProtocol {
    fn default() -> Self {
        // iRCCE ships a static 4 KiB threshold (paper §4.1); our slots are
        // 3840 B, the nearest value that tiles the payload area.
        PipelinedProtocol { window_off: 0, slot_bytes: SLOT_BYTES }
    }
}

impl PipelinedProtocol {
    /// Confine both slots to `[window_off, window_off + window_len)` of
    /// the payload area (vSCC multi-device sessions).
    pub fn confined(window_off: usize, window_len: usize) -> Self {
        assert!(window_off + window_len <= CHUNK_BYTES);
        let slot_bytes = window_len / PIPELINE_SLOTS;
        assert!(slot_bytes > 0);
        PipelinedProtocol { window_off, slot_bytes }
    }

    /// The packet size in bytes.
    pub fn packet(&self) -> usize {
        self.slot_bytes
    }

    fn slot_addr(&self, who: scc::geometry::GlobalCore, i: usize) -> scc::geometry::MpbAddr {
        layout::payload(who, self.window_off + i * self.slot_bytes)
    }
}

impl PointToPoint for PipelinedProtocol {
    fn send<'a>(
        &'a self,
        ctx: &'a RankCtx,
        dest: usize,
        data: &'a [u8],
        flow: u64,
    ) -> LocalBoxFuture<'a, ()> {
        Box::pin(async move {
            let me = ctx.rank;
            let my = ctx.who();
            let peer = ctx.session.who(dest);
            let base = ctx.sent_count.borrow()[dest];
            let ranges = chunk_ranges(data.len(), self.slot_bytes);
            let n_packets = ranges.len();
            let f = Some(flow);
            for (p, (lo, hi)) in ranges.enumerate() {
                // Flow control: slot p%2 is free once packet p-2 was
                // consumed, i.e. ready has reached base + p - 1.
                if p >= PIPELINE_SLOTS {
                    let target = base.wrapping_add((p - 1) as u8);
                    hop!(ctx, "mpb_wait", f, [flag = "ready", pkt = p], {
                        flag_wait_reached(ctx, layout::ready_flag(my, dest), target).await;
                    });
                }
                hop!(ctx, "sender_put", f, [pkt = p, bytes = hi - lo, slot = p % 2], {
                    ctx.core.put(self.slot_addr(my, p % PIPELINE_SLOTS), &data[lo..hi], f).await;
                });
                let cnt = base.wrapping_add((p + 1) as u8);
                ctx.core.flag_write(layout::sent_flag(peer, me), cnt, f).await;
            }
            let total = base.wrapping_add(n_packets as u8);
            ctx.sent_count.borrow_mut()[dest] = total;
            hop!(ctx, "mpb_wait", f, [flag = "ready", target = total], {
                flag_wait_reached(ctx, layout::ready_flag(my, dest), total).await;
            });
            ctx.session.trace().instant(
                ctx.core.sim().now(),
                Category::Protocol,
                "pipe_send_done",
                f,
                || &ctx.label,
                || fields![packets = n_packets],
            );
        })
    }

    fn recv<'a>(
        &'a self,
        ctx: &'a RankCtx,
        src: usize,
        buf: &'a mut [u8],
        flow: u64,
    ) -> LocalBoxFuture<'a, ()> {
        Box::pin(async move {
            let me = ctx.rank;
            let my = ctx.who();
            let peer = ctx.session.who(src);
            let base = ctx.recv_count.borrow()[src];
            let ranges = chunk_ranges(buf.len(), self.slot_bytes);
            let n_packets = ranges.len();
            let f = Some(flow);
            for (p, (lo, hi)) in ranges.enumerate() {
                let cnt = base.wrapping_add((p + 1) as u8);
                hop!(ctx, "recv_poll", f, [flag = "sent", pkt = p], {
                    flag_wait_reached(ctx, layout::sent_flag(my, src), cnt).await;
                });
                hop!(ctx, "recv_get", f, [pkt = p, bytes = hi - lo, slot = p % 2], {
                    ctx.core.cl1invmb().await;
                    let slot = self.slot_addr(peer, p % PIPELINE_SLOTS);
                    ctx.core.get(slot, &mut buf[lo..hi], f).await;
                });
                ctx.core.flag_write(layout::ready_flag(peer, me), cnt, f).await;
            }
            ctx.recv_count.borrow_mut()[src] = base.wrapping_add(n_packets as u8);
        })
    }

    fn name(&self) -> &'static str {
        "iRCCE pipelined"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_ranges_cover_exactly() {
        assert_eq!(chunk_ranges(0, 10).collect::<Vec<_>>(), vec![(0, 0)]);
        assert_eq!(chunk_ranges(5, 10).collect::<Vec<_>>(), vec![(0, 5)]);
        assert_eq!(chunk_ranges(10, 10).collect::<Vec<_>>(), vec![(0, 10)]);
        assert_eq!(chunk_ranges(25, 10).collect::<Vec<_>>(), vec![(0, 10), (10, 20), (20, 25)]);
    }

    #[test]
    fn eight_kib_splits_into_two_chunks() {
        let r: Vec<_> = chunk_ranges(8192, CHUNK_BYTES).collect();
        assert_eq!(r.len(), 2);
        assert_eq!(r[1].1 - r[1].0, 8192 - CHUNK_BYTES);
    }
}
