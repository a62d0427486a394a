//! Dimension-order routing over the 2D core mesh.
//!
//! "When a neuron on a core spikes, it injects a packet into the mesh,
//! which is passed from core to core—first in the x dimension then in the
//! y dimension (deadlock-free dimension-order routing)—until it arrives at
//! its target core, where it fans out locally. The architecture is robust
//! to core defects: if a core fails, we disable it and route spike events
//! around it." — paper Section III-C.
//!
//! Routes are computed arithmetically (hop counts, chip-boundary
//! crossings) rather than by flit-level simulation; a defective router on
//! the nominal path costs a two-hop detour around it.

use crate::mesh::DefectMap;
use tn_core::CoreCoord;

/// Routing summary for one packet.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RoutePath {
    /// Mesh hops traversed (Manhattan distance plus detour hops).
    pub hops: u32,
    /// Chip boundaries crossed (merge–split traversals).
    pub boundary_crossings: u32,
    /// Defective routers detoured around.
    pub detours: u32,
}

/// Compute the dimension-order route from `src` to `dst`.
///
/// Returns `None` if the *destination* core is defective: a disabled core
/// receives nothing, so there is no route to charge.
/// Defective routers strictly inside the path are detoured around at a
/// cost of 2 extra hops each.
pub fn route_path(src: CoreCoord, dst: CoreCoord, defects: &DefectMap) -> Option<RoutePath> {
    if defects.is_defective(dst) {
        return None;
    }
    let base_hops = src.hops_to(dst);

    // Chip boundaries crossed: the x-leg runs at src.y from src.x to
    // dst.x; the y-leg runs at dst.x.
    let (scx, _) = src.chip();
    let (dcx, dcy) = dst.chip();
    let (_, scy) = src.chip();
    let crossings = scx.abs_diff(dcx) as u32 + scy.abs_diff(dcy) as u32;

    let mut detours = 0u32;
    if !defects.is_empty() {
        // Walk the nominal path (exclusive of src and dst) counting
        // defective intermediate routers.
        let y0 = src.y;
        let x_range = || {
            let (a, b) = (src.x.min(dst.x), src.x.max(dst.x));
            (a..=b).filter(move |&x| x != src.x || y0 != src.y)
        };
        for x in x_range() {
            let is_src = x == src.x && y0 == src.y;
            let is_dst = x == dst.x && y0 == dst.y;
            if !is_src && !is_dst && defects.is_defective(CoreCoord::new(x, y0)) {
                detours += 1;
            }
        }
        let (ya, yb) = (src.y.min(dst.y), src.y.max(dst.y));
        for y in ya..=yb {
            let c = CoreCoord::new(dst.x, y);
            if (c.x != src.x || c.y != src.y) && (c.x != dst.x || c.y != dst.y) {
                // Avoid double-counting the turn core (dst.x, src.y).
                if y != src.y && defects.is_defective(c) {
                    detours += 1;
                }
            }
        }
        // The turn router (dst.x, src.y) was counted in the x walk when it
        // lies strictly between; nothing extra needed.
    }

    Some(RoutePath {
        hops: base_hops + 2 * detours,
        boundary_crossings: crossings,
        detours,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_route_is_manhattan() {
        let d = DefectMap::new(64, 64);
        let r = route_path(CoreCoord::new(3, 5), CoreCoord::new(10, 1), &d).unwrap();
        assert_eq!(r.hops, 7 + 4);
        assert_eq!(r.boundary_crossings, 0);
        assert_eq!(r.detours, 0);
    }

    #[test]
    fn self_route_is_free() {
        let d = DefectMap::new(8, 8);
        let r = route_path(CoreCoord::new(2, 2), CoreCoord::new(2, 2), &d).unwrap();
        assert_eq!(r.hops, 0);
    }

    #[test]
    fn defective_destination_has_no_route() {
        let mut d = DefectMap::new(8, 8);
        d.disable(CoreCoord::new(4, 4));
        assert!(route_path(CoreCoord::new(0, 0), CoreCoord::new(4, 4), &d).is_none());
    }

    #[test]
    fn defect_on_x_leg_costs_two_hops() {
        let mut d = DefectMap::new(16, 16);
        d.disable(CoreCoord::new(5, 0));
        let r = route_path(CoreCoord::new(0, 0), CoreCoord::new(10, 0), &d).unwrap();
        assert_eq!(r.detours, 1);
        assert_eq!(r.hops, 12);
    }

    #[test]
    fn defect_on_y_leg_costs_two_hops() {
        let mut d = DefectMap::new(16, 16);
        d.disable(CoreCoord::new(10, 5));
        let r = route_path(CoreCoord::new(0, 0), CoreCoord::new(10, 10), &d).unwrap();
        assert_eq!(r.detours, 1);
        assert_eq!(r.hops, 22);
    }

    #[test]
    fn defect_off_path_is_free() {
        let mut d = DefectMap::new(16, 16);
        d.disable(CoreCoord::new(3, 3));
        let r = route_path(CoreCoord::new(0, 0), CoreCoord::new(10, 0), &d).unwrap();
        assert_eq!(r.detours, 0);
        assert_eq!(r.hops, 10);
    }

    #[test]
    fn source_and_destination_defects_do_not_detour() {
        // The source core being dead means it never spikes; only strict
        // intermediates count.
        let mut d = DefectMap::new(16, 16);
        d.disable(CoreCoord::new(0, 0));
        let r = route_path(CoreCoord::new(0, 0), CoreCoord::new(5, 0), &d).unwrap();
        assert_eq!(r.detours, 0);
    }

    #[test]
    fn boundary_crossings_counted_per_axis() {
        let d = DefectMap::new(256, 256);
        // (10,10) on chip (0,0) → (200,200) on chip (3,3).
        let r = route_path(CoreCoord::new(10, 10), CoreCoord::new(200, 200), &d).unwrap();
        assert_eq!(r.boundary_crossings, 6);
    }
}
