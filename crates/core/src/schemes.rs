//! The inter-device communication schemes of the paper (Fig. 4), as
//! pluggable [`PointToPoint`] protocols.
//!
//! | scheme | data path | figure |
//! |---|---|---|
//! | [`CommScheme::SimpleRouting`] | transparent per-line forwarding (2012 prototype, baseline) | Fig. 6b lower bound |
//! | [`CommScheme::RemotePutHwAck`] | sender streams posted line writes, FPGA auto-acks (unstable ≥3 devices) | Fig. 6b upper bound |
//! | [`CommScheme::RemotePutWcb`] | sender streams into the host write-combining buffer, task flushes granules | Fig. 4c |
//! | [`CommScheme::LocalPutRemoteGet`] | sender puts locally + triggers prefetch; receiver reads the host software cache | Fig. 4b |
//! | [`CommScheme::LocalPutLocalGet`] | both sides touch only local MPB; the virtual DMA controller moves the data | Fig. 4a |
//!
//! Synchronization counters follow two styles matching Fig. 4d: the
//! *consumed* style (`a`: sender waits until the receiver copied) for
//! local-put schemes, and the *grant* style (`b1`/`b2`: receiver first
//! grants its buffer, sender then writes and signals) for schemes that
//! deliver into the receiver's MPB.

use des::fields;
use des::obs::Registry;
use des::stats::Gauge;
use des::trace::Category;
use rcce::hop;
use rcce::layout::{self, CHUNK_BYTES};
use rcce::protocol::{chunk_ranges, flag_wait_reached, LocalBoxFuture, PointToPoint};
use rcce::session::RankCtx;
use scc::geometry::MpbAddr;

use crate::mmio;

/// The five inter-device schemes of the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CommScheme {
    /// Transparent packet routing through the host daemon (baseline).
    SimpleRouting,
    /// Remote put with FPGA fast write acknowledges (upper bound,
    /// unstable beyond two devices).
    RemotePutHwAck,
    /// Remote put through the host write-combining buffer.
    RemotePutWcb,
    /// Local put / remote get with the host software cache.
    LocalPutRemoteGet,
    /// Local put / local get via the virtual DMA controller.
    LocalPutLocalGet,
}

impl CommScheme {
    /// All schemes, in the order the figures list them.
    pub const ALL: [CommScheme; 5] = [
        CommScheme::SimpleRouting,
        CommScheme::RemotePutHwAck,
        CommScheme::RemotePutWcb,
        CommScheme::LocalPutRemoteGet,
        CommScheme::LocalPutLocalGet,
    ];

    /// Display name as used in the paper's plots.
    pub fn name(self) -> &'static str {
        match self {
            CommScheme::SimpleRouting => "simple routing",
            CommScheme::RemotePutHwAck => "remote put (hw write-ack)",
            CommScheme::RemotePutWcb => "remote put (host WCB)",
            CommScheme::LocalPutRemoteGet => "local put / remote get (sw cache)",
            CommScheme::LocalPutLocalGet => "local put / local get (vDMA)",
        }
    }

    /// The point-to-point protocol implementing this scheme, with MPB
    /// payload-window occupancy gauges reporting into `registry`
    /// (`vscc.window.*`). Protocols built on one registry share the
    /// gauges.
    pub fn protocol_with_obs(self, registry: &Registry) -> std::rc::Rc<dyn PointToPoint> {
        let windows = WindowGauges::register(registry);
        match self {
            CommScheme::SimpleRouting => std::rc::Rc::new(rcce::BlockingProtocol::default()),
            CommScheme::RemotePutHwAck | CommScheme::RemotePutWcb => {
                std::rc::Rc::new(RemotePutProtocol { windows })
            }
            CommScheme::LocalPutRemoteGet => {
                std::rc::Rc::new(CachedGetProtocol { windows, ..Default::default() })
            }
            CommScheme::LocalPutLocalGet => {
                std::rc::Rc::new(VdmaProtocol { windows, ..Default::default() })
            }
        }
    }
}

/// Pre-resolved occupancy gauges for the payload-window layout (DESIGN.md
/// §4b), one per scheme window. Occupancy is "bytes put but not yet
/// consumed": the producer side adds at the end of its put, the consumer
/// side subtracts when it copies the bytes out (for the vDMA send slots,
/// when the controller's drain flag confirms the slots were captured).
/// The gauges are resolved once at protocol construction, so the
/// per-chunk update on the data path is a plain `Cell` add — no lookup,
/// no allocation. Default gauges are detached: they count but report
/// into no registry.
#[derive(Clone, Default)]
pub struct WindowGauges {
    /// Direct-transfer slot (`DIRECT_OFF..DIRECT_OFF+DIRECT_MAX`).
    pub direct: Gauge,
    /// Remote-put receive window (`REMOTE_PUT_OFF..` one chunk).
    pub remote_put: Gauge,
    /// Cached-get local put window (`0..LPRG_CHUNK`).
    pub lprg: Gauge,
    /// vDMA send slots (`0..2*VDMA_SLOT`).
    pub vdma_send: Gauge,
    /// vDMA receive slots (`2*VDMA_SLOT..4*VDMA_SLOT`).
    pub vdma_recv: Gauge,
}

impl WindowGauges {
    /// Resolve the gauges in `registry` under `vscc.window.<name>.bytes`.
    pub fn register(registry: &Registry) -> Self {
        let scope = registry.scoped("vscc").scoped("window");
        WindowGauges {
            direct: scope.scoped("direct").gauge("bytes"),
            remote_put: scope.scoped("remote_put").gauge("bytes"),
            lprg: scope.scoped("lprg").gauge("bytes"),
            vdma_send: scope.scoped("vdma_send").gauge("bytes"),
            vdma_recv: scope.scoped("vdma_recv").gauge("bytes"),
        }
    }
}

/// Chunk size of the cached local-put/remote-get scheme: the payload area
/// minus the direct-transfer slot.
pub const LPRG_CHUNK: usize = 7424;
/// The send half of the payload area. On multi-device systems the on-chip
/// protocols are confined here, because the receive half belongs to
/// host-delivered inbound traffic (remote-put chunks, vDMA packets).
pub const SEND_AREA_BYTES: usize = 2 * VDMA_SLOT;
/// Payload-relative offset and size of the remote-put receive window.
pub const REMOTE_PUT_OFF: usize = 2 * VDMA_SLOT;
/// Chunk size of the remote-put schemes (bounded by the receive window).
pub const REMOTE_PUT_CHUNK: usize = 2 * VDMA_SLOT;
/// vDMA packet size: the payload area is split into 2 send + 2 receive
/// slots of this size.
pub const VDMA_SLOT: usize = 1920;
/// Payload-relative offset of the direct-transfer slot (small messages).
pub const DIRECT_OFF: usize = LPRG_CHUNK;
/// Capacity of the direct-transfer slot.
pub const DIRECT_MAX: usize = 256;

const _: () = assert!(DIRECT_OFF + DIRECT_MAX == CHUNK_BYTES);
const _: () = assert!(4 * VDMA_SLOT == CHUNK_BYTES);

/// Payload address of vDMA send slot `i` in `who`'s region.
fn send_slot(who: scc::GlobalCore, i: usize) -> MpbAddr {
    layout::payload(who, i * VDMA_SLOT)
}

/// Payload address of vDMA receive slot `i` in `who`'s region.
fn recv_slot(who: scc::GlobalCore, i: usize) -> MpbAddr {
    layout::payload(who, 2 * VDMA_SLOT + i * VDMA_SLOT)
}

/// Payload address of the direct-transfer slot in `who`'s region.
fn direct_slot(who: scc::GlobalCore) -> MpbAddr {
    layout::payload(who, DIRECT_OFF)
}

// ---------------------------------------------------------------------
// Direct small-message path (§3.3 threshold), shared by the explicit
// schemes: grant → host-acked remote write → flag → local get.
// ---------------------------------------------------------------------

async fn direct_send(ctx: &RankCtx, dest: usize, data: &[u8], flow: u64, windows: &WindowGauges) {
    let me = ctx.rank;
    let my = ctx.who();
    let peer = ctx.session.who(dest);
    let f = Some(flow);
    ctx.session.trace().instant(
        ctx.core.sim().now(),
        Category::Protocol,
        "direct_send",
        f,
        || &ctx.label,
        || fields![bytes = data.len() as u64, dest = dest as u64],
    );
    let cnt = ctx.next_sent(dest);
    // b1: wait for the receiver's grant before touching its MPB.
    hop!(ctx, "mpb_wait", f, [flag = "grant", target = cnt], {
        flag_wait_reached(ctx, layout::ready_flag(my, dest), cnt).await;
    });
    hop!(ctx, "sender_put", f, [bytes = data.len() as u64, target = "direct_slot"], {
        ctx.core.put(direct_slot(peer), data, f).await;
        windows.direct.add(data.len() as i64);
    });
    // b2: data-available signal.
    ctx.core.flag_write(layout::sent_flag(peer, me), cnt, f).await;
}

async fn direct_recv(ctx: &RankCtx, src: usize, buf: &mut [u8], flow: u64, windows: &WindowGauges) {
    let me = ctx.rank;
    let my = ctx.who();
    let peer = ctx.session.who(src);
    let f = Some(flow);
    ctx.session.trace().instant(
        ctx.core.sim().now(),
        Category::Protocol,
        "direct_recv",
        f,
        || &ctx.label,
        || fields![bytes = buf.len() as u64, src = src as u64],
    );
    let cnt = ctx.recv_count.borrow()[src].wrapping_add(1);
    // b1: grant the buffer.
    ctx.core.flag_write(layout::ready_flag(peer, me), cnt, f).await;
    hop!(ctx, "recv_poll", f, [flag = "sent", target = cnt], {
        flag_wait_reached(ctx, layout::sent_flag(my, src), cnt).await;
    });
    hop!(ctx, "recv_get", f, [bytes = buf.len() as u64], {
        ctx.core.cl1invmb().await;
        ctx.core.get(direct_slot(my), buf, f).await;
        windows.direct.sub(buf.len() as i64);
    });
    ctx.recv_count.borrow_mut()[src] = cnt;
}

// ---------------------------------------------------------------------
// Remote put (hardware write-ack or host WCB; Fig. 4c)
// ---------------------------------------------------------------------

/// Remote-put protocol: the sender writes chunks straight into the
/// receiver's payload area; which posted-write machinery carries them
/// (FPGA fast-ack or host WCB) is decided by the host fabric mode.
#[derive(Default)]
pub struct RemotePutProtocol {
    /// Payload-window occupancy gauges (detached unless built via
    /// [`CommScheme::protocol_with_obs`]).
    pub windows: WindowGauges,
}

impl PointToPoint for RemotePutProtocol {
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
            hop!(ctx, "rput_send", f, [bytes = data.len() as u64, dest = dest as u64], {
                for (lo, hi) in chunk_ranges(data.len(), REMOTE_PUT_CHUNK) {
                    let cnt = ctx.next_sent(dest);
                    // b1: the receiver's buffer grant.
                    hop!(ctx, "mpb_wait", f, [flag = "grant", target = cnt], {
                        flag_wait_reached(ctx, layout::ready_flag(my, dest), cnt).await;
                    });
                    // Remote put: stream the chunk into the receiver's MPB
                    // receive window.
                    hop!(ctx, "sender_put", f, [bytes = hi - lo, target = "remote_mpb"], {
                        ctx.core.put(layout::payload(peer, REMOTE_PUT_OFF), &data[lo..hi], f).await;
                        self.windows.remote_put.add((hi - lo) as i64);
                    });
                    // b2: data available.
                    ctx.core.flag_write(layout::sent_flag(peer, me), cnt, f).await;
                }
            });
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
            hop!(ctx, "rput_recv", f, [bytes = buf.len() as u64, src = src as u64], {
                for (lo, hi) in chunk_ranges(buf.len(), REMOTE_PUT_CHUNK) {
                    let cnt = ctx.recv_count.borrow()[src].wrapping_add(1);
                    // b1: grant my receive window to this sender.
                    ctx.core.flag_write(layout::ready_flag(peer, me), cnt, f).await;
                    hop!(ctx, "recv_poll", f, [flag = "sent", target = cnt], {
                        flag_wait_reached(ctx, layout::sent_flag(my, src), cnt).await;
                    });
                    // Local get out of my own MPB.
                    hop!(ctx, "recv_get", f, [bytes = hi - lo], {
                        ctx.core.cl1invmb().await;
                        let window = layout::payload(my, REMOTE_PUT_OFF);
                        ctx.core.get(window, &mut buf[lo..hi], f).await;
                        self.windows.remote_put.sub((hi - lo) as i64);
                    });
                    ctx.recv_count.borrow_mut()[src] = cnt;
                }
            });
        })
    }

    fn name(&self) -> &'static str {
        "remote put / local get"
    }
}

// ---------------------------------------------------------------------
// Local put / remote get with the host software cache (Fig. 4b)
// ---------------------------------------------------------------------

/// Cached local-put/remote-get: the sender keeps RCCE's local put but
/// explicitly invalidates and updates the host copy; the receiver's
/// remote get is answered by the software cache.
pub struct CachedGetProtocol {
    /// Messages at or below this size take the direct path (§3.3).
    pub direct_threshold: usize,
    /// Trigger the host prefetch after every local put. Disabling it
    /// (ablation) leaves the receiver's reads to cold-miss in the host
    /// cache, which then fetches on demand — no overlap with the put.
    pub prefetch: bool,
    /// Payload-window occupancy gauges (detached unless built via
    /// [`CommScheme::protocol_with_obs`]).
    pub windows: WindowGauges,
}

impl Default for CachedGetProtocol {
    fn default() -> Self {
        CachedGetProtocol { direct_threshold: 96, prefetch: true, windows: WindowGauges::default() }
    }
}

impl PointToPoint for CachedGetProtocol {
    fn send<'a>(
        &'a self,
        ctx: &'a RankCtx,
        dest: usize,
        data: &'a [u8],
        flow: u64,
    ) -> LocalBoxFuture<'a, ()> {
        Box::pin(async move {
            if data.len() <= self.direct_threshold {
                return direct_send(ctx, dest, data, flow, &self.windows).await;
            }
            let me = ctx.rank;
            let my = ctx.who();
            let peer = ctx.session.who(dest);
            let f = Some(flow);
            hop!(ctx, "lprg_send", f, [bytes = data.len() as u64, dest = dest as u64], {
                let mut last = 0u8;
                for (lo, hi) in chunk_ranges(data.len(), LPRG_CHUNK) {
                    let cnt = ctx.next_sent(dest);
                    let consumed = cnt.wrapping_sub(1);
                    // Wait until the receiver consumed the previous chunk
                    // before overwriting the local buffer (sync point a).
                    hop!(ctx, "mpb_wait", f, [flag = "consumed", target = consumed], {
                        flag_wait_reached(ctx, layout::ready_flag(my, dest), consumed).await;
                    });
                    // Invalidate the outdated part of the host copy (§3.1)...
                    ctx.core
                        .mmio_write_fused(
                            mmio::REG_CACHE,
                            mmio::encode_cache(layout::OFF_PAYLOAD, hi - lo, false, f),
                        )
                        .await;
                    // ... local put ...
                    hop!(ctx, "sender_put", f, [bytes = hi - lo, target = "local_mpb"], {
                        ctx.core.put(layout::payload(my, 0), &data[lo..hi], f).await;
                        self.windows.lprg.add((hi - lo) as i64);
                    });
                    // ... and trigger the prefetch into the host cache.
                    if self.prefetch {
                        ctx.core
                            .mmio_write_fused(
                                mmio::REG_CACHE,
                                mmio::encode_cache(layout::OFF_PAYLOAD, hi - lo, true, f),
                            )
                            .await;
                    }
                    ctx.core.flag_write(layout::sent_flag(peer, me), cnt, f).await;
                    last = cnt;
                }
                hop!(ctx, "mpb_wait", f, [flag = "consumed", target = last], {
                    flag_wait_reached(ctx, layout::ready_flag(my, dest), last).await;
                });
            });
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
            if buf.len() <= self.direct_threshold {
                return direct_recv(ctx, src, buf, flow, &self.windows).await;
            }
            let me = ctx.rank;
            let my = ctx.who();
            let peer = ctx.session.who(src);
            let f = Some(flow);
            hop!(ctx, "lprg_recv", f, [bytes = buf.len() as u64, src = src as u64], {
                for (lo, hi) in chunk_ranges(buf.len(), LPRG_CHUNK) {
                    let cnt = ctx.recv_count.borrow()[src].wrapping_add(1);
                    hop!(ctx, "recv_poll", f, [flag = "sent", target = cnt], {
                        flag_wait_reached(ctx, layout::sent_flag(my, src), cnt).await;
                    });
                    hop!(ctx, "recv_get", f, [bytes = hi - lo, via = "sw_cache"], {
                        ctx.core.cl1invmb().await;
                        // Remote get, served by the host software cache.
                        ctx.core.get(layout::payload(peer, 0), &mut buf[lo..hi], f).await;
                        self.windows.lprg.sub((hi - lo) as i64);
                    });
                    ctx.recv_count.borrow_mut()[src] = cnt;
                    ctx.core.flag_write(layout::ready_flag(peer, me), cnt, f).await;
                }
            });
        })
    }

    fn name(&self) -> &'static str {
        "local put / remote get (sw cache)"
    }
}

// ---------------------------------------------------------------------
// Local put / local get via the virtual DMA controller (Fig. 4a)
// ---------------------------------------------------------------------

/// vDMA protocol: sender and receiver both touch only local on-chip
/// memory; the communication task performs the copy (virtual DMA
/// controller). Packets alternate through two send and two receive
/// slots, so put, tunnel transfer, and get overlap — this removes the
/// 8 KiB throughput dip (§4.1).
pub struct VdmaProtocol {
    /// Messages at or below this size take the direct path (§3.3:
    /// "about 32 B to 128 B dependent on the communication scheme").
    pub direct_threshold: usize,
    /// Payload-window occupancy gauges (detached unless built via
    /// [`CommScheme::protocol_with_obs`]).
    pub windows: WindowGauges,
    /// Per-rank count of vDMA packets issued (the drain sequence): the
    /// sender spins on its `vdma_done` flag reaching `seq − 2` before
    /// reusing a send slot — the busy-wait of §3.3.
    drain_issued: std::cell::RefCell<std::collections::HashMap<usize, u8>>,
}

impl Default for VdmaProtocol {
    fn default() -> Self {
        VdmaProtocol {
            direct_threshold: 128,
            windows: WindowGauges::default(),
            drain_issued: std::cell::RefCell::new(std::collections::HashMap::new()),
        }
    }
}

impl VdmaProtocol {
    /// With a custom direct-transfer threshold (ablation knob).
    pub fn with_threshold(direct_threshold: usize) -> Self {
        VdmaProtocol { direct_threshold, ..Default::default() }
    }
}

impl PointToPoint for VdmaProtocol {
    fn send<'a>(
        &'a self,
        ctx: &'a RankCtx,
        dest: usize,
        data: &'a [u8],
        flow: u64,
    ) -> LocalBoxFuture<'a, ()> {
        Box::pin(async move {
            if data.len() <= self.direct_threshold {
                return direct_send(ctx, dest, data, flow, &self.windows).await;
            }
            let me = ctx.rank;
            let my = ctx.who();
            let peer = ctx.session.who(dest);
            let f = Some(flow);
            hop!(ctx, "vdma_send", f, [bytes = data.len() as u64, dest = dest as u64], {
                let base = ctx.sent_count.borrow()[dest];
                let packets = chunk_ranges(data.len(), VDMA_SLOT);
                let n = packets.len();
                let mut last_gseq = 0u8;
                for (p0, (lo, hi)) in packets.enumerate() {
                    let seq = base.wrapping_add((p0 + 1) as u8);
                    // Wait for the receiver's slot grant (double-buffered),
                    // then until the controller drained the slot we are
                    // about to overwrite (§3.3: "a core spins on a flag
                    // which is located in its on-chip memory").
                    let gseq = hop!(ctx, "mpb_wait", f, [flag = "grant+drain", pkt = p0], {
                        flag_wait_reached(ctx, layout::ready_flag(my, dest), seq).await;
                        let gseq = {
                            let mut issued = self.drain_issued.borrow_mut();
                            let e = issued.entry(ctx.rank).or_insert(0);
                            *e = e.wrapping_add(1);
                            *e
                        };
                        // (The wrap-safe comparison makes the first two
                        // packets pass immediately against the
                        // zero-initialized flag.)
                        let drained = gseq.wrapping_sub(2);
                        flag_wait_reached(ctx, layout::vdma_done_flag(my), drained).await;
                        gseq
                    });
                    // Local put into my send slot (slot parity follows the
                    // global drain sequence, since the slots are shared by
                    // all of this rank's outgoing messages)...
                    let sslot = send_slot(my, (gseq % 2) as usize);
                    hop!(ctx, "sender_put", f, [bytes = hi - lo, slot = (gseq % 2) as u64], {
                        ctx.core.put(sslot, &data[lo..hi], f).await;
                        self.windows.vdma_send.add((hi - lo) as i64);
                    });
                    // ... then program the vDMA controller: address, count,
                    // control in one fused 32 B register write (Fig. 5).
                    // The flow id rides the free half of the control word,
                    // so the host tags the transfer with the same
                    // provenance.
                    ctx.core
                        .mmio_write_fused(
                            mmio::REG_VDMA,
                            mmio::encode_vdma(
                                sslot.offset,
                                peer,
                                recv_slot(peer, p0 % 2).offset,
                                hi - lo,
                                seq,
                                me as u8,
                                gseq,
                                f,
                            ),
                        )
                        .await;
                    last_gseq = gseq;
                }
                let total = base.wrapping_add(n as u8);
                ctx.sent_count.borrow_mut()[dest] = total;
                // Spin until the controller drained every slot of this
                // message (§3.3: the core busy-waits on its on-chip flag
                // until the copy operation completed). Without this, a
                // later send — even an on-chip one — could overwrite a slot
                // before the vDMA captured it.
                hop!(ctx, "mpb_wait", f, [flag = "drain+consumed", target = last_gseq], {
                    flag_wait_reached(ctx, layout::vdma_done_flag(my), last_gseq).await;
                    // Every slot of this message is confirmed drained.
                    self.windows.vdma_send.sub(data.len() as i64);
                    // And until the receiver's grants confirm the tail
                    // packets were consumed (blocking RCCE semantics).
                    flag_wait_reached(ctx, layout::ready_flag(my, dest), total).await;
                });
            });
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
            if buf.len() <= self.direct_threshold {
                return direct_recv(ctx, src, buf, flow, &self.windows).await;
            }
            let me = ctx.rank;
            let my = ctx.who();
            let peer = ctx.session.who(src);
            let f = Some(flow);
            hop!(ctx, "vdma_recv", f, [bytes = buf.len() as u64, src = src as u64], {
                let base = ctx.recv_count.borrow()[src];
                let packets = chunk_ranges(buf.len(), VDMA_SLOT);
                let n = packets.len();
                // Grant two slots up front (pipeline depth 2).
                let granted = base.wrapping_add(n.min(2) as u8);
                ctx.core.flag_write(layout::ready_flag(peer, me), granted, f).await;
                for (p0, (lo, hi)) in packets.enumerate() {
                    let seq = base.wrapping_add((p0 + 1) as u8);
                    // The vDMA controller raises my sent flag on delivery.
                    hop!(ctx, "recv_poll", f, [flag = "sent", pkt = p0], {
                        flag_wait_reached(ctx, layout::sent_flag(my, src), seq).await;
                        self.windows.vdma_recv.add((hi - lo) as i64);
                    });
                    // Local get out of my receive slot.
                    hop!(ctx, "recv_get", f, [bytes = hi - lo, slot = (p0 % 2) as u64], {
                        ctx.core.cl1invmb().await;
                        ctx.core.get(recv_slot(my, p0 % 2), &mut buf[lo..hi], f).await;
                        self.windows.vdma_recv.sub((hi - lo) as i64);
                    });
                    if p0 + 3 <= n {
                        // Re-grant the slot just freed.
                        let regrant = base.wrapping_add((p0 + 3) as u8);
                        ctx.core.flag_write(layout::ready_flag(peer, me), regrant, f).await;
                    }
                }
                ctx.recv_count.borrow_mut()[src] = base.wrapping_add(n as u8);
            });
        })
    }

    fn name(&self) -> &'static str {
        "local put / local get (vDMA)"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheme_names_are_distinct() {
        let names: std::collections::HashSet<_> =
            CommScheme::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), CommScheme::ALL.len());
    }

    #[test]
    fn slot_layout_disjoint() {
        let g = scc::GlobalCore::new(0, 0);
        let s0 = send_slot(g, 0).offset as usize;
        let s1 = send_slot(g, 1).offset as usize;
        let r0 = recv_slot(g, 0).offset as usize;
        let r1 = recv_slot(g, 1).offset as usize;
        let d = direct_slot(g).offset as usize;
        assert_eq!(s1 - s0, VDMA_SLOT);
        assert_eq!(r0 - s0, 2 * VDMA_SLOT);
        assert_eq!(r1 - r0, VDMA_SLOT);
        // Send slots end before receive slots begin; direct slot sits in
        // the tail of the receive area (guarded by the receive lock).
        assert!(s1 + VDMA_SLOT <= r0);
        assert!(d + DIRECT_MAX <= scc::MPB_BYTES);
        // The LPRG chunk never reaches the direct slot.
        assert!(layout::OFF_PAYLOAD as usize + LPRG_CHUNK <= d + layout::OFF_PAYLOAD as usize);
    }

    #[test]
    fn protocols_expose_paper_names() {
        assert!(CommScheme::LocalPutLocalGet.name().contains("vDMA"));
        let proto = CommScheme::SimpleRouting.protocol_with_obs(&Registry::new());
        assert!(proto.name().contains("local put"));
    }
}
