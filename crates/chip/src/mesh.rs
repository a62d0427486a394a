//! Mesh occupancy accounting, chip-boundary (merge–split) links, and the
//! defect map.
//!
//! The mesh itself is modelled arithmetically ([`crate::router`]); this
//! module tracks *per-link occupancy* each tick so the timing model can
//! find the congestion critical path, and *per-boundary occupancy* so the
//! serialized merge–split links between tiled chips (paper Fig. 3(c)) are
//! charged correctly. Link loads are accumulated with difference arrays —
//! O(1) per packet, O(links) per tick — which is exact for dimension-order
//! routes.

use tn_core::{CoreCoord, CHIP_CORES_X, CHIP_CORES_Y};

/// Bitmap of defective (disabled) cores.
#[derive(Clone, Debug)]
pub struct DefectMap {
    width: u16,
    height: u16,
    bits: Vec<u64>,
    count: u32,
}

impl DefectMap {
    pub fn new(width: u16, height: u16) -> Self {
        let n = width as usize * height as usize;
        DefectMap {
            width,
            height,
            bits: vec![0; n.div_ceil(64)],
            count: 0,
        }
    }

    #[inline]
    fn idx(&self, c: CoreCoord) -> (usize, u64) {
        let i = c.y as usize * self.width as usize + c.x as usize;
        (i / 64, 1u64 << (i % 64))
    }

    /// Mark a core defective. Idempotent.
    pub fn disable(&mut self, c: CoreCoord) {
        assert!(c.x < self.width && c.y < self.height);
        let (w, m) = self.idx(c);
        if self.bits[w] & m == 0 {
            self.bits[w] |= m;
            self.count += 1;
        }
    }

    #[inline]
    pub fn is_defective(&self, c: CoreCoord) -> bool {
        if c.x >= self.width || c.y >= self.height {
            return false;
        }
        let (w, m) = self.idx(c);
        self.bits[w] & m != 0
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    pub fn count(&self) -> u32 {
        self.count
    }
}

/// Aggregate NoC loads for one tick.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NocTickLoads {
    /// Heaviest single mesh link occupancy (packets this tick).
    pub max_link_load: u64,
    /// Heaviest single chip-boundary (merge–split) link occupancy.
    pub max_boundary_load: u64,
    /// Total packet·hops this tick.
    pub total_hops: u64,
    /// Total chip-boundary crossings this tick.
    pub boundary_crossings: u64,
}

/// Mesh occupancy tracker for a `width × height` core grid (possibly
/// spanning multiple 64×64 chips).
pub struct Mesh {
    width: u16,
    height: u16,
    pub defects: DefectMap,
    /// Difference array per row for horizontal links: `h_diff[y][x]`
    /// covers link (x,y)→(x+1,y).
    h_diff: Vec<i64>,
    /// Difference array per column for vertical links.
    v_diff: Vec<i64>,
    /// Per-boundary loads: vertical chip boundaries (crossed by x-legs)
    /// then horizontal ones (crossed by y-legs).
    vb_loads: Vec<u64>,
    hb_loads: Vec<u64>,
    loads: NocTickLoads,
}

impl Mesh {
    pub fn new(width: u16, height: u16) -> Self {
        let chips_x = (width as usize).div_ceil(CHIP_CORES_X);
        let chips_y = (height as usize).div_ceil(CHIP_CORES_Y);
        Mesh {
            width,
            height,
            defects: DefectMap::new(width, height),
            h_diff: vec![0; width as usize * height as usize],
            v_diff: vec![0; width as usize * height as usize],
            vb_loads: vec![0; chips_x.saturating_sub(1) * chips_y],
            hb_loads: vec![0; chips_x * chips_y.saturating_sub(1)],
            loads: NocTickLoads::default(),
        }
    }

    pub fn width(&self) -> u16 {
        self.width
    }

    pub fn height(&self) -> u16 {
        self.height
    }

    /// Reset per-tick accumulators.
    pub fn begin_tick(&mut self) {
        self.h_diff.fill(0);
        self.v_diff.fill(0);
        self.vb_loads.fill(0);
        self.hb_loads.fill(0);
        self.loads = NocTickLoads::default();
    }

    /// Route one packet, accumulating loads. Returns the hop count, or
    /// `None` (nothing charged) if the destination is defective: a dead
    /// core receives nothing.
    pub fn route(&mut self, src: CoreCoord, dst: CoreCoord) -> Option<u32> {
        let path = crate::router::route_path(src, dst, &self.defects)?;
        self.loads.total_hops += path.hops as u64;
        self.loads.boundary_crossings += path.boundary_crossings as u64;

        // x-leg occupies horizontal links [min_x, max_x) in row src.y.
        let w = self.width as usize;
        if src.x != dst.x {
            let (a, b) = (src.x.min(dst.x) as usize, src.x.max(dst.x) as usize);
            let row = src.y as usize * w;
            self.h_diff[row + a] += 1;
            if row + b < self.h_diff.len() {
                self.h_diff[row + b] -= 1;
            }
        }
        // y-leg occupies vertical links [min_y, max_y) in column dst.x.
        if src.y != dst.y {
            let (a, b) = (src.y.min(dst.y) as usize, src.y.max(dst.y) as usize);
            let col = dst.x as usize;
            self.v_diff[a * w + col] += 1;
            if b * w + col < self.v_diff.len() {
                self.v_diff[b * w + col] -= 1;
            }
        }

        // Chip-boundary loads.
        let chips_x = (self.width as usize).div_ceil(CHIP_CORES_X);
        let (scx, scy) = src.chip();
        let (dcx, dcy) = dst.chip();
        if scx != dcx {
            let (a, b) = (scx.min(dcx), scx.max(dcx));
            let row = src.y as usize / CHIP_CORES_Y;
            for bx in a..b {
                self.vb_loads[row * (chips_x - 1) + bx as usize] += 1;
            }
        }
        if scy != dcy {
            let (a, b) = (scy.min(dcy), scy.max(dcy));
            let col = dst.x as usize / CHIP_CORES_X;
            for by in a..b {
                self.hb_loads[by as usize * chips_x + col] += 1;
            }
        }

        Some(path.hops)
    }

    /// Finish the tick: prefix-sum the difference arrays to find the
    /// heaviest link and boundary, and return the tick's loads.
    pub fn finish_tick(&mut self) -> NocTickLoads {
        let mut max_link: i64 = 0;
        let w = self.width as usize;
        let h = self.height as usize;
        for y in 0..h {
            let mut acc = 0i64;
            for x in 0..w {
                acc += self.h_diff[y * w + x];
                max_link = max_link.max(acc);
            }
        }
        for x in 0..w {
            let mut acc = 0i64;
            for y in 0..h {
                acc += self.v_diff[y * w + x];
                max_link = max_link.max(acc);
            }
        }
        self.loads.max_link_load = max_link as u64;
        self.loads.max_boundary_load = self
            .vb_loads
            .iter()
            .chain(self.hb_loads.iter())
            .copied()
            .max()
            .unwrap_or(0);
        self.loads
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defect_map_counts() {
        let mut d = DefectMap::new(10, 10);
        assert!(d.is_empty());
        d.disable(CoreCoord::new(3, 4));
        d.disable(CoreCoord::new(3, 4));
        assert_eq!(d.count(), 1);
        assert!(d.is_defective(CoreCoord::new(3, 4)));
        assert!(!d.is_defective(CoreCoord::new(4, 3)));
    }

    #[test]
    fn link_loads_from_overlapping_routes() {
        let mut m = Mesh::new(8, 8);
        m.begin_tick();
        // Three packets share the horizontal link (3,0)→(4,0).
        m.route(CoreCoord::new(0, 0), CoreCoord::new(7, 0));
        m.route(CoreCoord::new(2, 0), CoreCoord::new(5, 0));
        m.route(CoreCoord::new(3, 0), CoreCoord::new(4, 0));
        let loads = m.finish_tick();
        assert_eq!(loads.max_link_load, 3);
        assert_eq!(loads.total_hops, 7 + 3 + 1);
        assert_eq!(loads.boundary_crossings, 0);
    }

    #[test]
    fn vertical_leg_loads_counted_in_dst_column() {
        let mut m = Mesh::new(8, 8);
        m.begin_tick();
        // Both routes turn at (5, y) and descend column 5.
        m.route(CoreCoord::new(0, 0), CoreCoord::new(5, 7));
        m.route(CoreCoord::new(1, 1), CoreCoord::new(5, 6));
        let loads = m.finish_tick();
        // Column-5 links between y=1..6 carry both packets.
        assert_eq!(loads.max_link_load, 2);
    }

    #[test]
    fn tick_reset_clears_loads() {
        let mut m = Mesh::new(8, 8);
        m.begin_tick();
        m.route(CoreCoord::new(0, 0), CoreCoord::new(7, 7));
        let l1 = m.finish_tick();
        assert!(l1.total_hops > 0);
        m.begin_tick();
        let l2 = m.finish_tick();
        assert_eq!(l2.total_hops, 0);
        assert_eq!(l2.max_link_load, 0);
    }

    #[test]
    fn boundary_loads_on_multichip() {
        let mut m = Mesh::new(128, 64); // 2×1 chips
        m.begin_tick();
        for y in 0..10u16 {
            m.route(CoreCoord::new(10, y), CoreCoord::new(100, y));
        }
        let loads = m.finish_tick();
        assert_eq!(loads.boundary_crossings, 10);
        assert_eq!(loads.max_boundary_load, 10, "all cross the same boundary");
    }

    #[test]
    fn packets_to_defective_cores_are_not_charged() {
        let mut m = Mesh::new(8, 8);
        m.defects.disable(CoreCoord::new(7, 7));
        m.begin_tick();
        assert!(m
            .route(CoreCoord::new(0, 0), CoreCoord::new(7, 7))
            .is_none());
        let loads = m.finish_tick();
        assert_eq!(loads.total_hops, 0);
        assert_eq!(loads.max_link_load, 0);
    }
}
