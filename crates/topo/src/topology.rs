//! The link graph: a list of links plus per-flow paths (link-index sets).

use axcc_core::error::require;
use axcc_core::{Fingerprint, Fingerprinter, LinkParams, RunTrace, ScenarioError};

/// A network of links. Flows reference links by index (their *path*); a
/// single-link topology reduces exactly to the paper's model.
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    links: Vec<LinkParams>,
}

impl Topology {
    /// A topology over the given links.
    ///
    /// # Panics
    ///
    /// Panics if empty.
    pub fn new(links: Vec<LinkParams>) -> Self {
        assert!(!links.is_empty(), "topology needs at least one link");
        Topology { links }
    }

    /// The degenerate single-bottleneck topology of the paper's model.
    pub fn single(link: LinkParams) -> Self {
        Topology { links: vec![link] }
    }

    /// The classic parking lot: `k` identical links in a row. The long
    /// flow crosses all of them (`path = 0..k`); each short flow crosses
    /// one.
    pub fn parking_lot(k: usize, link: LinkParams) -> Self {
        assert!(k > 0, "parking lot needs at least one hop");
        Topology {
            links: vec![link; k],
        }
    }

    /// Number of links.
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// The links.
    pub fn links(&self) -> &[LinkParams] {
        &self.links
    }

    /// Link `l`.
    ///
    /// # Panics
    ///
    /// Panics if `l` is out of range (validate paths first).
    pub fn link(&self, l: usize) -> &LinkParams {
        &self.links[l]
    }

    /// Check every link's parameters ([`LinkParams::validate`]).
    pub fn validate(&self) -> Result<(), ScenarioError> {
        self.links.iter().try_for_each(LinkParams::validate)
    }

    /// Check that a flow path is non-empty, references only links this
    /// topology has, and crosses each of them at most once.
    pub fn validate_path(&self, path: &[usize]) -> Result<(), ScenarioError> {
        require(!path.is_empty(), "path", 0.0, "at least one link")?;
        for (k, &l) in path.iter().enumerate() {
            let (index, once) = (
                "an index into the topology's link list",
                "each link at most once",
            );
            require(l < self.links.len(), "path", l as f64, index)?;
            require(!path[..k].contains(&l), "path", l as f64, once)?;
        }
        Ok(())
    }

    /// Index of the link with the smallest RTT floor `2Θ` (the first one
    /// on ties). Every path's RTT is at least this floor, which makes it
    /// the link a multi-link run's trace records.
    pub fn floor_link(&self) -> usize {
        let mut best = 0;
        for (l, link) in self.links.iter().enumerate() {
            if link.min_rtt() < self.links[best].min_rtt() {
                best = l;
            }
        }
        best
    }

    /// Per-link load columns `X_l^(t) = Σ_{f ∋ l} x_f^(t)` of a run on
    /// this topology, derived from its recorded windows. `paths[f]` is
    /// sender `f`'s path. Windows are added in sender order, the same
    /// addition sequence the fluid engine uses, so the columns are
    /// bit-identical to the loads it computed; a link's loss column is
    /// then `link(l).loss_rate(load)`. Out-of-range links are skipped —
    /// validate paths first.
    pub fn link_loads(&self, paths: &[Vec<usize>], trace: &RunTrace) -> Vec<Vec<f64>> {
        let mut loads = vec![vec![0.0; trace.len()]; self.links.len()];
        for (path, sender) in paths.iter().zip(&trace.senders) {
            for &l in path {
                if let Some(load) = loads.get_mut(l) {
                    for (x, &w) in load.iter_mut().zip(&sender.window) {
                        *x += w;
                    }
                }
            }
        }
        loads
    }

    /// A path's base (zero-queue) RTT: the sum of the per-link propagation
    /// floors. Out-of-range links contribute nothing — validate first.
    pub fn path_min_rtt(&self, path: &[usize]) -> f64 {
        path.iter()
            .filter_map(|&l| self.links.get(l))
            .map(LinkParams::min_rtt)
            .sum()
    }
}

impl Fingerprint for Topology {
    fn fingerprint(&self, fp: &mut Fingerprinter) {
        fp.write_str("Topology");
        self.links.fingerprint(fp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hop() -> LinkParams {
        LinkParams::new(1000.0, 0.05, 20.0)
    }

    #[test]
    fn parking_lot_replicates_the_hop() {
        let t = Topology::parking_lot(3, hop());
        assert_eq!(t.num_links(), 3);
        for l in 0..3 {
            assert_eq!(t.link(l), &hop());
        }
    }

    #[test]
    fn single_is_one_link() {
        assert_eq!(Topology::single(hop()).num_links(), 1);
    }

    #[test]
    fn path_validation() {
        let t = Topology::parking_lot(2, hop());
        assert_eq!(t.validate_path(&[0, 1]), Ok(()));
        assert_eq!(t.validate_path(&[1, 0]), Ok(()));
        assert!(t.validate_path(&[]).is_err());
        assert!(t.validate_path(&[2]).is_err());
        assert!(t.validate_path(&[0, 1, 0]).is_err());
    }

    #[test]
    fn hand_built_links_are_validated() {
        assert_eq!(Topology::parking_lot(2, hop()).validate(), Ok(()));
        let bad = |f: fn(&mut LinkParams)| {
            let mut link = hop();
            f(&mut link);
            match Topology::new(vec![hop(), link]).validate() {
                Err(ScenarioError::InvalidParameter { field, .. }) => field,
                other => panic!("expected a link error, got {other:?}"),
            }
        };
        assert_eq!(bad(|l| l.bandwidth = f64::NAN), "link.bandwidth");
        assert_eq!(bad(|l| l.prop_delay = -0.05), "link.prop_delay");
        assert_eq!(bad(|l| l.buffer = f64::INFINITY), "link.buffer");
        assert_eq!(bad(|l| l.timeout_delta = 0.01), "link.timeout_delta");
    }

    #[test]
    fn floor_link_has_the_smallest_rtt_floor() {
        assert_eq!(Topology::parking_lot(3, hop()).floor_link(), 0);
        let t = Topology::new(vec![hop(), LinkParams::new(1000.0, 0.02, 20.0), hop()]);
        assert_eq!(t.floor_link(), 1);
    }

    #[test]
    fn path_min_rtt_sums_over_hops() {
        let t = Topology::parking_lot(3, hop());
        // Each hop's floor is 2Θ = 0.1 s.
        assert!((t.path_min_rtt(&[0, 1, 2]) - 0.3).abs() < 1e-12);
        assert!((t.path_min_rtt(&[1]) - 0.1).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one link")]
    fn empty_topology_rejected() {
        Topology::new(Vec::new());
    }

    #[test]
    #[should_panic(expected = "at least one hop")]
    fn zero_hop_parking_lot_rejected() {
        Topology::parking_lot(0, hop());
    }

    #[test]
    fn fingerprint_covers_every_link() {
        let a = Topology::parking_lot(2, hop()).digest();
        let b = Topology::parking_lot(3, hop()).digest();
        let c = Topology::new(vec![hop(), LinkParams::new(500.0, 0.05, 20.0)]).digest();
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, Topology::parking_lot(2, hop()).digest());
    }
}
