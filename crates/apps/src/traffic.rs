//! Communication-traffic analysis and rendering (Fig. 8).
//!
//! The session layer records payload bytes per (sender, receiver) pair;
//! this module turns the matrix into the paper's visualization: a square
//! heat map (dark = heavy traffic) with device boundaries marked, plus
//! summary statistics (maximum pairwise traffic, on-chip vs inter-device
//! volume).

use rcce::Session;

/// A dense traffic matrix with rank→device mapping.
#[derive(Debug, Clone)]
pub struct TrafficMatrix {
    /// `bytes[src][dest]` payload bytes.
    pub bytes: Vec<Vec<u64>>,
    /// Device id of each rank.
    pub device_of: Vec<u8>,
}

impl TrafficMatrix {
    /// Capture the matrix of a finished session.
    pub fn capture(session: &Session) -> Self {
        let n = session.num_ranks();
        TrafficMatrix {
            bytes: session.traffic_matrix(),
            device_of: (0..n).map(|r| session.inner.who(r).device.0).collect(),
        }
    }

    /// Number of ranks.
    pub fn n(&self) -> usize {
        self.bytes.len()
    }

    /// Scale every entry (e.g. project a 3-iteration run to the full 200
    /// iterations of NPB BT).
    pub fn scaled(&self, num: u64, den: u64) -> Self {
        TrafficMatrix {
            bytes: self
                .bytes
                .iter()
                .map(|row| row.iter().map(|&b| b * num / den).collect())
                .collect(),
            device_of: self.device_of.clone(),
        }
    }

    /// The heaviest pair: (src, dest, bytes).
    pub fn max_pair(&self) -> (usize, usize, u64) {
        let mut best = (0, 0, 0);
        for (s, row) in self.bytes.iter().enumerate() {
            for (d, &b) in row.iter().enumerate() {
                if b > best.2 {
                    best = (s, d, b);
                }
            }
        }
        best
    }

    /// Total payload bytes.
    pub fn total(&self) -> u64 {
        self.bytes.iter().flatten().sum()
    }

    /// Bytes crossing a device boundary.
    pub fn inter_device_bytes(&self) -> u64 {
        let mut sum = 0;
        for (s, row) in self.bytes.iter().enumerate() {
            for (d, &b) in row.iter().enumerate() {
                if self.device_of[s] != self.device_of[d] {
                    sum += b;
                }
            }
        }
        sum
    }

    /// Fraction of traffic that is inter-device.
    pub fn inter_device_fraction(&self) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            self.inter_device_bytes() as f64 / t as f64
        }
    }

    /// Render the Fig. 8 heat map as text: x = sender, y = receiver, dark
    /// glyph = heavy traffic, `+` grid lines at device boundaries.
    pub fn render(&self) -> String {
        const SHADES: &[u8] = b" .:-=*%@#";
        let n = self.n();
        let max = self.max_pair().2.max(1);
        let mut out = String::with_capacity((n + 8) * (2 * n + 8));
        out.push_str(&format!(
            "traffic matrix: {n} ranks, max pair {:.1} MB, {:.1}% inter-device\n",
            self.max_pair().2 as f64 / 1e6,
            self.inter_device_fraction() * 100.0
        ));
        for recv in 0..n {
            if recv > 0 && self.device_of[recv] != self.device_of[recv - 1] {
                out.push_str(&"-".repeat(2 * n));
                out.push('\n');
            }
            for send in 0..n {
                if send > 0 && self.device_of[send] != self.device_of[send - 1] {
                    out.push('|');
                } else if send > 0 {
                    out.push(' ');
                }
                let b = self.bytes[send][recv];
                let shade = if b == 0 {
                    b' '
                } else {
                    // Log scale: small flows stay visible, like the grey
                    // levels of the paper's figure.
                    let level = ((b as f64).ln() / (max as f64).ln() * (SHADES.len() - 1) as f64)
                        .round()
                        .clamp(1.0, (SHADES.len() - 1) as f64)
                        as usize;
                    SHADES[level]
                };
                out.push(shade as char);
            }
            out.push('\n');
        }
        out
    }

    /// JSON dump of the full matrix (machine-readable Fig. 8 artifact).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"bytes\":[");
        for (s, row) in self.bytes.iter().enumerate() {
            if s > 0 {
                out.push(',');
            }
            out.push('[');
            for (d, &b) in row.iter().enumerate() {
                if d > 0 {
                    out.push(',');
                }
                out.push_str(&b.to_string());
            }
            out.push(']');
        }
        out.push_str("],\"device_of\":[");
        for (i, &dev) in self.device_of.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&dev.to_string());
        }
        out.push_str("]}");
        out
    }

    /// Whether the pattern is neighbour-dominated: the fraction of bytes
    /// within `radius` of the diagonal (with wrap-around), Fig. 8's
    /// qualitative claim.
    pub fn neighbour_fraction(&self, radius: usize) -> f64 {
        let n = self.n();
        let mut near = 0u64;
        for (s, row) in self.bytes.iter().enumerate() {
            for (d, &b) in row.iter().enumerate() {
                let dist = s.abs_diff(d).min(n - s.abs_diff(d));
                if dist <= radius {
                    near += b;
                }
            }
        }
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            near as f64 / t as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TrafficMatrix {
        // 4 ranks, 2 devices, ring pattern.
        let mut bytes = vec![vec![0u64; 4]; 4];
        for s in 0..4usize {
            bytes[s][(s + 1) % 4] = 1000 * (s as u64 + 1);
        }
        TrafficMatrix { bytes, device_of: vec![0, 0, 1, 1] }
    }

    #[test]
    fn max_pair_found() {
        let m = sample();
        assert_eq!(m.max_pair(), (3, 0, 4000));
    }

    #[test]
    fn totals_and_inter_device() {
        let m = sample();
        assert_eq!(m.total(), 1000 + 2000 + 3000 + 4000);
        // 1->2 (2000) and 3->0 (4000) cross the boundary.
        assert_eq!(m.inter_device_bytes(), 6000);
        assert!((m.inter_device_fraction() - 0.6).abs() < 1e-9);
    }

    #[test]
    fn scaling_projects_iterations() {
        let m = sample().scaled(200, 4);
        assert_eq!(m.max_pair().2, 4000 * 50);
    }

    #[test]
    fn ring_is_neighbour_dominated() {
        let m = sample();
        assert_eq!(m.neighbour_fraction(1), 1.0);
        assert_eq!(m.neighbour_fraction(0), 0.0);
    }

    #[test]
    fn render_contains_grid_and_header() {
        let m = sample();
        let r = m.render();
        assert!(r.contains("4 ranks"));
        assert!(r.contains('|'), "device boundary column marker expected");
        assert!(r.lines().count() >= 5);
    }

    #[test]
    fn json_round_shape() {
        let m = sample();
        let j = m.to_json();
        assert!(j.starts_with("{\"bytes\":[["));
        assert!(j.ends_with("\"device_of\":[0,0,1,1]}"));
    }
}
