//! Copy-on-write byte buffers and a size-classed chunk pool for the
//! simulated data plane.
//!
//! The payload path (MPB store → tunnel TLP → software cache → MPB
//! load) used to allocate and copy a fresh `Vec<u8>` at nearly every
//! hop. [`Bytes`] makes the common hops free: it is an `Rc`-backed,
//! immutable view with O(1) [`Bytes::clone`] and O(1) [`Bytes::slice`],
//! so forwarding a payload across actors shares one storage allocation.
//! The rare hop that must change bytes in flight — fault corruption,
//! WCB merging — goes through [`Bytes::make_mut`], which mutates in
//! place when the view is unique and copies (once) when it is shared:
//! bytes still *really* move, and a fault flip still corrupts the data
//! a receiver verifies.
//!
//! Storage comes from a size-classed [`Pool`]: power-of-two classes
//! whose free lists are refilled when a buffer's last `Rc` drops, so
//! steady-state traffic recycles chunks instead of round-tripping the
//! host allocator. Pooled buffers are handed out **zeroed** — recycling
//! must never resurrect stale payload bytes.
//!
//! Everything here is single-threaded (`Rc`, `RefCell`, a
//! `thread_local!` global pool) and touches only host wall-clock:
//! virtual-time costs are charged by the callers exactly as before, so
//! traces, metrics, and calibration bands are unchanged.

use std::cell::RefCell;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::rc::{Rc, Weak};

/// Smallest pooled class (covers flag bytes and MPB lines).
const MIN_CLASS_BYTES: usize = 32;
/// Largest pooled class; bigger buffers fall back to plain allocation.
const MAX_CLASS_BYTES: usize = 1 << 16;
/// Number of power-of-two classes in `[MIN_CLASS_BYTES, MAX_CLASS_BYTES]`.
const N_CLASSES: usize =
    (MAX_CLASS_BYTES.trailing_zeros() - MIN_CLASS_BYTES.trailing_zeros() + 1) as usize;
/// Free-list depth cap per class: beyond this, returned buffers are freed.
const MAX_FREE_PER_CLASS: usize = 64;
/// Cap on parked `Rc<Inner>` header allocations kept for reuse.
const MAX_SPARE_INNERS: usize = 64;

/// Class index for a capacity, or `None` when the size is unpooled.
fn class_of(cap: usize) -> Option<usize> {
    if cap == 0 || cap > MAX_CLASS_BYTES {
        return None;
    }
    let cls = cap.next_power_of_two().max(MIN_CLASS_BYTES);
    Some((cls.trailing_zeros() - MIN_CLASS_BYTES.trailing_zeros()) as usize)
}

fn class_bytes(idx: usize) -> usize {
    MIN_CLASS_BYTES << idx
}

struct PoolState {
    free: [Vec<Vec<u8>>; N_CLASSES],
    /// Unique `Rc<Inner>` headers (storage already taken back) parked so
    /// [`BytesMut::freeze`] can reuse the `Rc` allocation itself.
    spare_inners: Vec<Rc<Inner>>,
}

/// A size-classed recycling pool of byte buffers.
///
/// Cheap to clone (shared state). Buffers obtained through
/// [`Pool::get`] return to the pool automatically when the last
/// [`Bytes`]/[`BytesMut`] referencing their storage is dropped.
#[derive(Clone)]
pub struct Pool {
    state: Rc<RefCell<PoolState>>,
}

impl Default for Pool {
    fn default() -> Self {
        Self::new()
    }
}

impl Pool {
    /// An empty pool.
    pub fn new() -> Self {
        Pool {
            state: Rc::new(RefCell::new(PoolState {
                free: std::array::from_fn(|_| Vec::new()),
                spare_inners: Vec::new(),
            })),
        }
    }

    /// A zeroed mutable buffer of `len` bytes, recycled from the pool
    /// when a chunk of the right class is free.
    pub fn get(&self, len: usize) -> BytesMut {
        let mut data = match class_of(len.max(1)) {
            Some(idx) => self.state.borrow_mut().free[idx]
                .pop()
                .unwrap_or_else(|| Vec::with_capacity(class_bytes(idx))),
            None => Vec::with_capacity(len),
        };
        // Recycled chunks are handed out zeroed: stale payload bytes
        // must never leak into a fresh buffer.
        data.clear();
        data.resize(len, 0);
        BytesMut { data, pool: Rc::downgrade(&self.state) }
    }

    /// An *empty* buffer whose pooled storage can hold at least `cap`
    /// bytes before growing (an accumulator for
    /// [`BytesMut::extend_from_slice`]).
    pub fn get_with_capacity(&self, cap: usize) -> BytesMut {
        let mut b = self.get(cap);
        b.truncate(0);
        b
    }

    /// Copy `src` into a pooled buffer and freeze it.
    pub fn copy(&self, src: &[u8]) -> Bytes {
        let mut b = self.get(src.len());
        b.copy_from_slice(src);
        b.freeze()
    }

    /// Total buffers currently parked in free lists.
    pub fn free_buffers(&self) -> usize {
        self.state.borrow().free.iter().map(Vec::len).sum()
    }
}

fn return_to_pool(pool: &Weak<RefCell<PoolState>>, data: &mut Vec<u8>) {
    if data.capacity() == 0 {
        return;
    }
    // Only whole class-sized chunks are recycled; odd capacities (plain
    // `Vec` conversions, oversized buffers) just drop.
    if let Some(idx) = class_of(data.capacity()) {
        if class_bytes(idx) == data.capacity() {
            if let Some(state) = pool.upgrade() {
                let mut st = state.borrow_mut();
                if st.free[idx].len() < MAX_FREE_PER_CLASS {
                    st.free[idx].push(std::mem::take(data));
                }
            }
        }
    }
}

thread_local! {
    /// Per-thread global pool: each simulation runs on one OS thread
    /// (`parallel_sweep` threads get independent pools), and pooling
    /// only affects host wall-clock, never virtual time.
    static GLOBAL_POOL: Pool = Pool::new();
}

/// A zeroed mutable buffer of `len` bytes from the thread-local pool.
pub fn pooled(len: usize) -> BytesMut {
    GLOBAL_POOL.with(|p| p.get(len))
}

/// An empty pooled accumulator with room for at least `cap` bytes.
pub fn pooled_with_capacity(cap: usize) -> BytesMut {
    GLOBAL_POOL.with(|p| p.get_with_capacity(cap))
}

/// Copy `src` into a thread-local pooled buffer and freeze it.
pub fn pooled_copy(src: &[u8]) -> Bytes {
    GLOBAL_POOL.with(|p| p.copy(src))
}

/// Shared storage. Dropping the last `Rc` returns the chunk to its pool.
struct Inner {
    data: Vec<u8>,
    pool: Weak<RefCell<PoolState>>,
}

impl Drop for Inner {
    fn drop(&mut self) {
        return_to_pool(&self.pool, &mut self.data);
    }
}

/// Wrap `data` in an `Rc<Inner>`, reusing a parked header allocation
/// from the pool when one is available.
fn new_inner(data: Vec<u8>, pool: Weak<RefCell<PoolState>>) -> Rc<Inner> {
    let spare = pool.upgrade().and_then(|state| state.borrow_mut().spare_inners.pop());
    match spare {
        Some(mut rc) => {
            let inner = Rc::get_mut(&mut rc).expect("parked headers are unique");
            inner.data = data;
            inner.pool = pool;
            rc
        }
        None => Rc::new(Inner { data, pool }),
    }
}

/// An immutable, cheaply cloneable view of shared bytes.
///
/// `clone` and [`Bytes::slice`] are O(1) (they bump a refcount and
/// adjust the view window); [`Bytes::make_mut`] gives in-place mutable
/// access, copying only when the storage is shared or the view is a
/// proper slice of it.
#[derive(Clone)]
pub struct Bytes {
    inner: Rc<Inner>,
    off: usize,
    len: usize,
}

impl Bytes {
    /// An empty view (no storage).
    pub fn new() -> Self {
        Bytes::from_vec(Vec::new())
    }

    /// Wrap an existing `Vec` without copying. The storage is returned
    /// to the thread-local pool on drop only if its capacity is exactly
    /// a pool class size.
    pub fn from_vec(data: Vec<u8>) -> Self {
        let len = data.len();
        let pool = GLOBAL_POOL.with(|p| Rc::downgrade(&p.state));
        Bytes { inner: new_inner(data, pool), off: 0, len }
    }

    /// Copy a slice into a pooled buffer.
    pub fn copy_from_slice(src: &[u8]) -> Self {
        pooled_copy(src)
    }

    /// Number of visible bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The viewed bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.inner.data[self.off..self.off + self.len]
    }

    /// O(1) sub-view. Panics if the range is out of bounds.
    pub fn slice(&self, range: std::ops::Range<usize>) -> Bytes {
        assert!(
            range.start <= range.end && range.end <= self.len,
            "slice {range:?} out of bounds for {} bytes",
            self.len
        );
        Bytes {
            inner: self.inner.clone(),
            off: self.off + range.start,
            len: range.end - range.start,
        }
    }

    /// Mutable access to the viewed bytes, copy-on-write.
    ///
    /// Mutates in place when this is the only view of the whole
    /// storage; otherwise copies the viewed range into a fresh pooled
    /// buffer first, so other views are never disturbed.
    pub fn make_mut(&mut self) -> &mut [u8] {
        let whole = self.off == 0 && self.len == self.inner.data.len();
        if !(whole && Rc::strong_count(&self.inner) == 1) {
            let copied = pooled_copy(self.as_slice());
            *self = copied;
        }
        let inner = Rc::get_mut(&mut self.inner).expect("unique after CoW");
        &mut inner.data[..]
    }

    /// Copy out to a plain `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl Drop for Bytes {
    fn drop(&mut self) {
        // Last view of pooled storage: take the data back for the class
        // free list and park the unique `Rc` header so a later `freeze`
        // reuses the allocation instead of `Rc::new`.
        if Rc::strong_count(&self.inner) != 1 {
            return;
        }
        let Some(state) = self.inner.pool.upgrade() else { return };
        let inner = Rc::get_mut(&mut self.inner).expect("unique at last drop");
        let mut data = std::mem::take(&mut inner.data);
        let pool = inner.pool.clone();
        return_to_pool(&pool, &mut data);
        let mut st = state.borrow_mut();
        if st.spare_inners.len() < MAX_SPARE_INNERS {
            st.spare_inners.push(self.inner.clone());
        }
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Bytes::from_vec(v)
    }
}

impl From<&[u8]> for Bytes {
    fn from(s: &[u8]) -> Self {
        Bytes::copy_from_slice(s)
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bytes({} bytes)", self.len)
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == &other[..]
    }
}

/// A uniquely owned, mutable, growable byte buffer.
///
/// Obtained from a [`Pool`] (or [`pooled`]); [`BytesMut::freeze`] turns
/// it into a shareable [`Bytes`] without copying. Dropping it returns
/// class-sized storage to its pool.
pub struct BytesMut {
    data: Vec<u8>,
    pool: Weak<RefCell<PoolState>>,
}

impl BytesMut {
    /// A zeroed buffer of `len` bytes from the thread-local pool.
    pub fn zeroed(len: usize) -> Self {
        pooled(len)
    }

    /// An empty growable buffer (storage pooled once it grows).
    pub fn new() -> Self {
        BytesMut { data: Vec::new(), pool: GLOBAL_POOL.with(|p| Rc::downgrade(&p.state)) }
    }

    /// Append bytes, growing the buffer if needed.
    pub fn extend_from_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }

    /// Shorten to `len` bytes (no-op if already shorter).
    pub fn truncate(&mut self, len: usize) {
        self.data.truncate(len);
    }

    /// Freeze into an immutable shareable view without copying.
    pub fn freeze(mut self) -> Bytes {
        let data = std::mem::take(&mut self.data);
        let pool = std::mem::replace(&mut self.pool, Weak::new());
        let len = data.len();
        Bytes { inner: new_inner(data, pool), off: 0, len }
    }

    /// Number of bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

impl Default for BytesMut {
    fn default() -> Self {
        BytesMut::new()
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }
}

impl Drop for BytesMut {
    fn drop(&mut self) {
        return_to_pool(&self.pool, &mut self.data);
    }
}

impl fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BytesMut({} bytes)", self.data.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_shares_storage_and_slice_is_a_window() {
        let b = Bytes::copy_from_slice(&[1, 2, 3, 4, 5]);
        let c = b.clone();
        assert_eq!(Rc::strong_count(&b.inner), 2);
        let s = c.slice(1..4);
        assert_eq!(&*s, &[2, 3, 4]);
        assert_eq!(Rc::strong_count(&b.inner), 3);
        let ss = s.slice(1..2);
        assert_eq!(&*ss, &[3]);
    }

    #[test]
    fn make_mut_in_place_when_unique() {
        let mut b = Bytes::copy_from_slice(&[9u8; 8]);
        let p = b.as_slice().as_ptr();
        b.make_mut()[0] = 1;
        assert_eq!(b.as_slice().as_ptr(), p, "unique whole-buffer view mutates in place");
        assert_eq!(b[0], 1);
    }

    #[test]
    fn make_mut_copies_when_shared() {
        let mut b = Bytes::copy_from_slice(&[7u8; 8]);
        let keep = b.clone();
        b.make_mut()[0] = 0xFF;
        assert_eq!(keep[0], 7, "other views are isolated from the mutation");
        assert_eq!(b[0], 0xFF);
    }

    #[test]
    fn make_mut_copies_when_sliced() {
        let base = Bytes::copy_from_slice(&[1, 2, 3, 4]);
        let mut s = base.slice(1..3);
        drop(base);
        // Unique refcount but a proper sub-view: must still copy.
        s.make_mut()[0] = 0xAA;
        assert_eq!(&*s, &[0xAA, 3]);
    }

    #[test]
    fn pool_recycles_and_zeroes() {
        let pool = Pool::new();
        let mut b = pool.get(100);
        b[0] = 0xEE;
        b[99] = 0xDD;
        let (cap, ptr) = {
            let frozen = b.freeze();
            (frozen.inner.data.capacity(), frozen.as_ptr())
        }; // dropped -> returned
        assert_eq!(cap, 128);
        assert_eq!(pool.free_buffers(), 1);
        let again = pool.get(128);
        assert_eq!(pool.free_buffers(), 0);
        assert_eq!(again.as_ptr(), ptr, "the parked chunk is handed out again");
        assert!(again.iter().all(|&x| x == 0), "recycled chunk must be zeroed");
    }

    #[test]
    fn pool_class_mismatch_allocates() {
        let pool = Pool::new();
        drop(pool.get(64)); // returns to class 64
        let b = pool.get(1024); // different class: a fresh allocation
        assert_eq!(b.len(), 1024);
        assert_eq!(pool.free_buffers(), 1, "the class-64 chunk stays parked");
        drop(b);
        assert_eq!(pool.free_buffers(), 2);
    }

    #[test]
    fn oversized_buffers_bypass_pool() {
        let pool = Pool::new();
        let b = pool.get(MAX_CLASS_BYTES + 1);
        drop(b);
        assert_eq!(pool.free_buffers(), 0);
    }

    #[test]
    fn from_vec_wraps_without_copy() {
        let v = vec![5u8; 40];
        let p = v.as_ptr();
        let b = Bytes::from_vec(v);
        assert_eq!(b.as_slice().as_ptr(), p);
        assert_eq!(b.len(), 40);
    }

    #[test]
    fn freeze_then_clones_then_drop_returns_once() {
        let pool = Pool::new();
        let b = pool.get(256).freeze();
        let c1 = b.clone();
        let c2 = b.slice(10..20);
        drop(b);
        drop(c1);
        assert_eq!(pool.free_buffers(), 0, "storage still referenced by a slice");
        drop(c2);
        assert_eq!(pool.free_buffers(), 1);
    }

    #[test]
    fn empty_bytes() {
        let b = Bytes::new();
        assert!(b.is_empty());
        assert_eq!(b.slice(0..0).len(), 0);
        assert_eq!(b.to_vec(), Vec::<u8>::new());
    }

    #[test]
    fn bytes_mut_grows_and_freezes() {
        let mut b = BytesMut::new();
        b.extend_from_slice(&[1, 2]);
        b.extend_from_slice(&[3]);
        assert_eq!(b.len(), 3);
        let f = b.freeze();
        assert_eq!(&*f, &[1, 2, 3]);
    }
}
