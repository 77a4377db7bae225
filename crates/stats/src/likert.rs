//! Five-point Likert-scale tabulation.
//!
//! Every survey instrument in the paper is a five-point Likert scale: the
//! end-of-semester evaluations (Fig. 3, "Always" … "Never"), the anonymous
//! mid/post-course confidence surveys (Fig. 4, "Strongly Disagree" …
//! "Strongly Agree"), and the satisfaction ratings (Figs. 10–11). This
//! module tabulates responses into counts, percentages, and summary scores.

use serde::{Deserialize, Serialize};

/// A response on a five-point agreement scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum LikertResponse {
    StronglyDisagree,
    Disagree,
    Neutral,
    Agree,
    StronglyAgree,
}

impl LikertResponse {
    /// All five responses in ascending order.
    pub const ALL: [LikertResponse; 5] = [
        LikertResponse::StronglyDisagree,
        LikertResponse::Disagree,
        LikertResponse::Neutral,
        LikertResponse::Agree,
        LikertResponse::StronglyAgree,
    ];

    /// Numeric score 1–5.
    pub fn score(&self) -> u8 {
        match self {
            LikertResponse::StronglyDisagree => 1,
            LikertResponse::Disagree => 2,
            LikertResponse::Neutral => 3,
            LikertResponse::Agree => 4,
            LikertResponse::StronglyAgree => 5,
        }
    }

    /// Inverse of [`Self::score`]; values are clamped into 1–5.
    pub fn from_score(s: i32) -> Self {
        match s {
            i32::MIN..=1 => LikertResponse::StronglyDisagree,
            2 => LikertResponse::Disagree,
            3 => LikertResponse::Neutral,
            4 => LikertResponse::Agree,
            _ => LikertResponse::StronglyAgree,
        }
    }
}

/// Tabulated responses to one Likert item.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LikertSummary {
    /// Counts indexed in [`LikertResponse::ALL`] order (SD → SA).
    pub counts: [usize; 5],
}

impl LikertSummary {
    /// Tabulates a slice of responses.
    pub fn tabulate(responses: &[LikertResponse]) -> Self {
        let mut counts = [0usize; 5];
        for r in responses {
            counts[(r.score() - 1) as usize] += 1;
        }
        Self { counts }
    }

    /// Total responses.
    pub fn total(&self) -> usize {
        self.counts.iter().sum()
    }

    /// Percentage (0–100) per category, SD → SA.
    pub fn percentages(&self) -> [f64; 5] {
        let t = self.total().max(1) as f64;
        let mut out = [0.0; 5];
        for (i, &c) in self.counts.iter().enumerate() {
            out[i] = 100.0 * c as f64 / t;
        }
        out
    }

    /// Mean numeric score (1–5).
    pub fn mean_score(&self) -> f64 {
        let t = self.total();
        if t == 0 {
            return 0.0;
        }
        let sum: usize = self
            .counts
            .iter()
            .enumerate()
            .map(|(i, &c)| (i + 1) * c)
            .sum();
        sum as f64 / t as f64
    }

    /// Fraction (0–1) of respondents in the top two boxes (Agree + SA).
    pub fn top_two_box(&self) -> f64 {
        let t = self.total();
        if t == 0 {
            return 0.0;
        }
        (self.counts[3] + self.counts[4]) as f64 / t as f64
    }

    /// Fraction (0–1) in the bottom two boxes (SD + D).
    pub fn bottom_two_box(&self) -> f64 {
        let t = self.total();
        if t == 0 {
            return 0.0;
        }
        (self.counts[0] + self.counts[1]) as f64 / t as f64
    }

    /// The modal response.
    pub fn mode(&self) -> LikertResponse {
        let idx = self
            .counts
            .iter()
            .enumerate()
            .max_by_key(|(_, &c)| c)
            .map(|(i, _)| i)
            .unwrap_or(2);
        LikertResponse::ALL[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use LikertResponse::*;

    #[test]
    fn tabulation_counts_each_category() {
        let rs = [Agree, Agree, Neutral, StronglyAgree, Disagree];
        let s = LikertSummary::tabulate(&rs);
        assert_eq!(s.counts, [0, 1, 1, 2, 1]);
        assert_eq!(s.total(), 5);
    }

    #[test]
    fn scores_roundtrip() {
        for r in LikertResponse::ALL {
            assert_eq!(LikertResponse::from_score(r.score() as i32), r);
        }
        assert_eq!(LikertResponse::from_score(-3), StronglyDisagree);
        assert_eq!(LikertResponse::from_score(99), StronglyAgree);
    }

    #[test]
    fn mean_score_and_boxes() {
        let rs = [StronglyAgree, StronglyAgree, Agree, Neutral];
        let s = LikertSummary::tabulate(&rs);
        assert!((s.mean_score() - 4.25).abs() < 1e-12);
        assert!((s.top_two_box() - 0.75).abs() < 1e-12);
        assert_eq!(s.bottom_two_box(), 0.0);
    }

    #[test]
    fn percentages_sum_to_100() {
        let rs = [
            Agree,
            Disagree,
            Neutral,
            Agree,
            StronglyAgree,
            Agree,
            Neutral,
        ];
        let s = LikertSummary::tabulate(&rs);
        let p = s.percentages();
        assert!((p.iter().sum::<f64>() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn paper_fig4a_spring_shape() {
        // Fig. 4a Spring 2025: 9 Neutral, 7 Agree, 5 Strongly Agree —
        // "Neutral the largest single response group".
        let mut rs = vec![Neutral; 9];
        rs.extend(vec![Agree; 7]);
        rs.extend(vec![StronglyAgree; 5]);
        let s = LikertSummary::tabulate(&rs);
        assert_eq!(s.mode(), Neutral);
        assert!(s.mean_score() > 3.0, "leaning positive overall");
        assert!((s.top_two_box() - 12.0 / 21.0).abs() < 1e-12);
    }

    #[test]
    fn empty_summary_is_safe() {
        let s = LikertSummary::tabulate(&[]);
        assert_eq!(s.total(), 0);
        assert_eq!(s.mean_score(), 0.0);
        assert_eq!(s.top_two_box(), 0.0);
        assert_eq!(s.percentages(), [0.0; 5]);
    }
}
