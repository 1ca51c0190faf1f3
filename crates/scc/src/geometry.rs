//! Chip and system geometry: tiles, cores, devices, and addresses.
//!
//! The SCC mesh is 6 columns × 4 rows of tiles, two cores per tile. Packets
//! route dimension-ordered (X then Y). vSCC adds a third coordinate: the
//! device number `z` (paper §3, Fig. 3), with the single physical off-chip
//! link attached at tile (3, 0) — the system interface (SIF).

use std::fmt;

/// Mesh columns.
pub const MESH_X: u8 = 6;
/// Mesh rows.
pub const MESH_Y: u8 = 4;
/// Tiles per device.
pub const TILES_PER_DEVICE: u8 = MESH_X * MESH_Y;
/// Cores per tile.
pub const CORES_PER_TILE: u8 = 2;
/// Cores per device (48).
pub const CORES_PER_DEVICE: u8 = TILES_PER_DEVICE * CORES_PER_TILE;

/// A tile position on the 2-D mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TileCoord {
    /// Column, `0..MESH_X`.
    pub x: u8,
    /// Row, `0..MESH_Y`.
    pub y: u8,
}

impl TileCoord {
    /// Construct, panicking outside the mesh.
    pub fn new(x: u8, y: u8) -> Self {
        assert!(x < MESH_X && y < MESH_Y, "tile ({x},{y}) outside {MESH_X}x{MESH_Y} mesh");
        TileCoord { x, y }
    }

    /// Tile index in row-major order.
    pub fn index(self) -> u8 {
        self.y * MESH_X + self.x
    }

    /// XY-routed hop count to `other` (|dx| + |dy|; dimension order does not
    /// change the count on a mesh).
    pub fn hops(self, other: TileCoord) -> u8 {
        self.x.abs_diff(other.x) + self.y.abs_diff(other.y)
    }

    /// The memory controller serving this tile. The SCC attaches four DDR3
    /// controllers at the mesh edges; each serves its quadrant.
    pub fn memory_controller(self) -> u8 {
        let east = self.x >= MESH_X / 2;
        let north = self.y >= MESH_Y / 2;
        (north as u8) << 1 | east as u8
    }
}

impl fmt::Display for TileCoord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{})", self.x, self.y)
    }
}

/// A core id within one device, `0..48`.
///
/// Cores `2t` and `2t+1` live on tile `t`; tiles are numbered row-major
/// from (0,0), matching the SCC's physical core-id layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CoreId(pub u8);

impl CoreId {
    /// Construct, panicking on out-of-range ids.
    pub fn new(id: u8) -> Self {
        assert!(id < CORES_PER_DEVICE, "core id {id} out of range");
        CoreId(id)
    }

    /// All cores of a device in id order.
    pub fn all() -> impl Iterator<Item = CoreId> {
        (0..CORES_PER_DEVICE).map(CoreId)
    }

    /// The tile this core sits on.
    pub fn tile(self) -> TileCoord {
        let t = self.0 / CORES_PER_TILE;
        TileCoord { x: t % MESH_X, y: t / MESH_X }
    }

    /// 0 or 1: position within the tile.
    pub fn slot(self) -> u8 {
        self.0 % CORES_PER_TILE
    }
}

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A device (chip) number; the `z` coordinate of vSCC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DeviceId(pub u8);

impl fmt::Display for DeviceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A physical core in the whole vSCC system: `(x, y, z)` in the paper's
/// notation, stored as (device, core).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GlobalCore {
    /// The device (z coordinate).
    pub device: DeviceId,
    /// The core within the device (encodes x, y).
    pub core: CoreId,
}

impl GlobalCore {
    /// Construct from device and core numbers.
    pub fn new(device: u8, core: u8) -> Self {
        GlobalCore { device: DeviceId(device), core: CoreId::new(core) }
    }

    /// Linear physical id across the system (`device * 48 + core`), the
    /// numbering of Fig. 3.
    pub fn linear(self) -> u32 {
        self.device.0 as u32 * CORES_PER_DEVICE as u32 + self.core.0 as u32
    }

    /// Inverse of [`GlobalCore::linear`].
    pub fn from_linear(id: u32) -> Self {
        GlobalCore {
            device: DeviceId((id / CORES_PER_DEVICE as u32) as u8),
            core: CoreId::new((id % CORES_PER_DEVICE as u32) as u8),
        }
    }

    /// The (x, y, z) triple of the paper.
    pub fn xyz(self) -> (u8, u8, u8) {
        let t = self.core.tile();
        (t.x, t.y, self.device.0)
    }
}

impl fmt::Display for GlobalCore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (x, y, z) = self.xyz();
        write!(f, "d{}c{}({x},{y},{z})", self.device.0, self.core.0)
    }
}

/// An address inside a core's 8 KiB on-chip buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MpbAddr {
    /// The core owning the buffer.
    pub owner: GlobalCore,
    /// Byte offset within the owner's 8 KiB region.
    pub offset: u16,
}

impl MpbAddr {
    /// Construct, panicking if the offset is outside the region.
    pub fn new(owner: GlobalCore, offset: u16) -> Self {
        assert!((offset as usize) < crate::MPB_BYTES, "MPB offset {offset} out of 8 KiB region");
        MpbAddr { owner, offset }
    }

    /// Address `delta` bytes further into the same region.
    #[allow(clippy::should_implement_trait)] // not an `Add` impl: panics on overflow past the region
    pub fn add(self, delta: u16) -> Self {
        MpbAddr::new(self.owner, self.offset + delta)
    }

    /// The 32 B line index of this address within the region.
    pub fn line(self) -> u16 {
        self.offset / crate::LINE_BYTES as u16
    }
}

impl fmt::Display for MpbAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}+{:#x}", self.owner, self.offset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tile_core_mapping() {
        assert_eq!(CoreId(0).tile(), TileCoord { x: 0, y: 0 });
        assert_eq!(CoreId(1).tile(), TileCoord { x: 0, y: 0 });
        assert_eq!(CoreId(2).tile(), TileCoord { x: 1, y: 0 });
        assert_eq!(CoreId(12).tile(), TileCoord { x: 0, y: 1 });
        assert_eq!(CoreId(47).tile(), TileCoord { x: 5, y: 3 });
    }

    #[test]
    fn hop_counts() {
        let a = TileCoord::new(0, 0);
        let b = TileCoord::new(5, 3);
        assert_eq!(a.hops(b), 8);
        assert_eq!(b.hops(a), 8);
        assert_eq!(a.hops(a), 0);
    }

    #[test]
    fn memory_controller_quadrants() {
        assert_eq!(TileCoord::new(0, 0).memory_controller(), 0);
        assert_eq!(TileCoord::new(5, 0).memory_controller(), 1);
        assert_eq!(TileCoord::new(0, 3).memory_controller(), 2);
        assert_eq!(TileCoord::new(5, 3).memory_controller(), 3);
    }

    #[test]
    fn linear_roundtrip() {
        for id in 0..240u32 {
            assert_eq!(GlobalCore::from_linear(id).linear(), id);
        }
    }

    #[test]
    fn xyz_of_sif_neighbour() {
        // Core 6 is on tile (3,0), the SIF tile.
        let g = GlobalCore::new(2, 6);
        assert_eq!(g.xyz(), (3, 0, 2));
        assert_eq!(CoreId(6).tile(), TileCoord { x: 3, y: 0 });
    }

    #[test]
    #[should_panic]
    fn mpb_addr_bounds_checked() {
        MpbAddr::new(GlobalCore::new(0, 0), 8192);
    }

    #[test]
    fn mpb_addr_line() {
        let a = MpbAddr::new(GlobalCore::new(0, 0), 64);
        assert_eq!(a.line(), 2);
        assert_eq!(a.add(31).line(), 2);
        assert_eq!(a.add(32).line(), 3);
    }
}
