//! End-of-semester course evaluations (Table II questions, Fig. 3 data).
//!
//! Fig. 3's narrative fixes the shape targets: both levels skew strongly
//! positive; undergraduates rate the *course-content* items highest while
//! graduates report larger gains on *skill* items; the two lab/clinical
//! items draw the lowest "Always" shares for both groups; and
//! "Seldom/Never/N.A." stay a small minority. 85% of students responded.

use crate::cohort::Level;
use sagegpu_stats::likert::LikertSummary;
use serde::Serialize;

/// The six university-standard evaluation questions of Table II.
pub const EVALUATION_QUESTIONS: [&str; 6] = [
    "The course information further developed my knowledge in this area.",
    "The course activities enhanced my learning of the course content.",
    "The oral assignments improved my presentation skills.",
    "The course activities improved my computer technology skills.",
    "Lab or clinical experiences contributed to my understanding of the course theories and concepts.",
    "The instructor clearly explained laboratory or clinical experiments or procedures.",
];

/// Question category for shape targeting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum QuestionKind {
    /// Q1–Q2: course content.
    Content,
    /// Q3–Q4: skill development.
    Skill,
    /// Q5–Q6: lab/clinical experiences.
    Lab,
}

/// Kind of each Table II question, in order.
pub fn question_kind(index: usize) -> QuestionKind {
    match index {
        0 | 1 => QuestionKind::Content,
        2 | 3 => QuestionKind::Skill,
        _ => QuestionKind::Lab,
    }
}

/// Response profile for one (question, level): counts over
/// `[Never, Seldom, Sometimes, Often, Always]` per 20 respondents.
///
/// Encodes Fig. 3's reading: UG content-heavy "Always", grads skill-heavy,
/// lab questions lowest "Always" for both, negatives rare.
pub fn evaluation_profile(index: usize, level: Level) -> LikertSummary {
    let counts = match (question_kind(index), level) {
        (QuestionKind::Content, Level::Undergraduate) => [0, 1, 2, 4, 13],
        (QuestionKind::Content, Level::Graduate) => [0, 1, 2, 6, 11],
        (QuestionKind::Skill, Level::Undergraduate) => [0, 1, 3, 6, 10],
        (QuestionKind::Skill, Level::Graduate) => [0, 0, 2, 5, 13],
        (QuestionKind::Lab, Level::Undergraduate) => [1, 1, 4, 7, 7],
        (QuestionKind::Lab, Level::Graduate) => [0, 1, 4, 7, 8],
    };
    LikertSummary { counts }
}

/// Overall response rate reported in §IV-B.
pub const RESPONSE_RATE: f64 = 0.85;

#[cfg(test)]
mod tests {
    use super::*;

    fn always_pct(q: usize, level: Level) -> f64 {
        evaluation_profile(q, level).percentages()[4]
    }

    #[test]
    fn six_questions_with_three_kinds() {
        assert_eq!(EVALUATION_QUESTIONS.len(), 6);
        assert_eq!(question_kind(0), QuestionKind::Content);
        assert_eq!(question_kind(3), QuestionKind::Skill);
        assert_eq!(question_kind(5), QuestionKind::Lab);
    }

    #[test]
    fn undergraduates_value_content_most() {
        // Fig. 3: "undergraduates valuing core course content".
        assert!(always_pct(0, Level::Undergraduate) > always_pct(3, Level::Undergraduate));
        assert!(always_pct(0, Level::Undergraduate) > always_pct(5, Level::Undergraduate));
    }

    #[test]
    fn graduates_gain_most_on_skills() {
        // Fig. 3: "graduates finding more significant gains in specific
        // skill development".
        assert!(always_pct(3, Level::Graduate) > always_pct(0, Level::Graduate));
        assert!(always_pct(3, Level::Graduate) > always_pct(3, Level::Undergraduate));
    }

    #[test]
    fn lab_questions_have_lowest_always_for_both_levels() {
        for level in [Level::Undergraduate, Level::Graduate] {
            for lab_q in [4, 5] {
                for other_q in [0, 1, 2, 3] {
                    assert!(
                        always_pct(lab_q, level) < always_pct(other_q, level) + 1e-9,
                        "lab q{lab_q} vs q{other_q} for {level:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn negative_responses_are_a_small_minority() {
        for q in 0..6 {
            for level in [Level::Undergraduate, Level::Graduate] {
                let s = evaluation_profile(q, level);
                assert!(
                    s.bottom_two_box() <= 0.15,
                    "q{q} {level:?}: negatives {}",
                    s.bottom_two_box()
                );
            }
        }
    }

    #[test]
    fn profiles_sum_to_twenty_respondents() {
        for q in 0..6 {
            for level in [Level::Undergraduate, Level::Graduate] {
                assert_eq!(evaluation_profile(q, level).total(), 20);
            }
        }
    }

    #[test]
    fn response_rate_is_85_percent() {
        assert!((RESPONSE_RATE - 0.85).abs() < f64::EPSILON);
    }
}
