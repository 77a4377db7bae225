//! The anonymous mid/post-course confidence surveys (Fig. 4).
//!
//! §IV-C: feedback was collected in week 6 (pre-midterm) and week 12, on a
//! five-point Likert scale. The mid survey asked about Numba, AWS GPU
//! cluster configuration, and profiling tools; the final survey repeated
//! those and added multi-GPU parallel programming.
//!
//! Calibration: where the paper gives exact counts (Fig. 4a: F24
//! 2/2/1/2/2, S25 0/0/9/7/5) they are the targets; elsewhere the counts
//! are set from the narrative (the Fig. 4b confidence recovery, the
//! Fig. 4c dip that is *smaller* in Spring, Fig. 4d's ten spring
//! disagreements). Responses are then *assigned to individual students by
//! latent-ability rank* — higher-ability students report higher confidence
//! — so per-student survey data stays coherent with their grades.

use crate::cohort::{Cohort, Semester};
use rand::prelude::*;
use rand::rngs::SmallRng;
use sagegpu_stats::likert::{LikertResponse, LikertSummary};
use serde::Serialize;

/// The four survey questions of Fig. 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum SurveyQuestion {
    /// "I can use Numba to implement a parallel algorithm using CUDA" (4a).
    NumbaCuda,
    /// "I feel confident in using AWS GPU Cluster" (4b).
    AwsCluster,
    /// "I feel confident in using PyTorch Profiler and Nsight Systems for
    /// GPU Profiling" (4c).
    Profiling,
    /// "I feel confident applying multi-GPU training and parallel computing
    /// for AI models" (4d).
    MultiGpu,
}

impl SurveyQuestion {
    /// All questions.
    pub const ALL: [SurveyQuestion; 4] = [
        SurveyQuestion::NumbaCuda,
        SurveyQuestion::AwsCluster,
        SurveyQuestion::Profiling,
        SurveyQuestion::MultiGpu,
    ];
}

/// Survey administration wave.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum SurveyWave {
    /// Week 6, pre-midterm.
    Mid,
    /// Week 12, pre-project.
    Final,
}

/// Respondent count per semester (most students completed the surveys;
/// Fall's 9 matches Fig. 4a's visible responses, Spring's 21 likewise).
pub fn respondents(semester: Semester) -> usize {
    match semester {
        Semester::Fall2024 => 9,
        Semester::Spring2025 => 21,
        Semester::Summer2025 => 0,
    }
}

/// Target response counts `[SD, D, N, A, SA]`. `None` when the question was
/// not administered in that wave (multi-GPU only appeared in the final
/// survey). Counts sum to [`respondents`].
pub fn target_counts(
    question: SurveyQuestion,
    wave: SurveyWave,
    semester: Semester,
) -> Option<[usize; 5]> {
    use Semester::*;
    use SurveyQuestion::*;
    use SurveyWave::*;
    let counts = match (question, wave, semester) {
        // Fig. 4a — exact paper counts for the final wave.
        (NumbaCuda, Mid, Fall2024) => [3, 3, 2, 1, 0],
        (NumbaCuda, Final, Fall2024) => [2, 2, 1, 2, 2],
        (NumbaCuda, Mid, Spring2025) => [2, 6, 8, 4, 1],
        (NumbaCuda, Final, Spring2025) => [0, 0, 9, 7, 5],
        // Fig. 4b — weak mid confidence that recovers by the final survey.
        (AwsCluster, Mid, Fall2024) => [3, 4, 1, 1, 0],
        (AwsCluster, Final, Fall2024) => [0, 2, 2, 3, 2],
        (AwsCluster, Mid, Spring2025) => [3, 5, 5, 6, 2],
        (AwsCluster, Final, Spring2025) => [0, 1, 3, 9, 8],
        // Fig. 4c — strong mid confidence that *dips*; dip smaller in S25.
        (Profiling, Mid, Fall2024) => [0, 1, 1, 4, 3],
        (Profiling, Final, Fall2024) => [2, 3, 2, 1, 1],
        (Profiling, Mid, Spring2025) => [0, 2, 4, 10, 5],
        (Profiling, Final, Spring2025) => [1, 5, 6, 7, 2],
        // Fig. 4d — final survey only.
        (MultiGpu, Mid, _) => return None,
        (MultiGpu, Final, Fall2024) => [0, 1, 1, 4, 3],
        (MultiGpu, Final, Spring2025) => [2, 8, 5, 4, 2],
        (_, _, Summer2025) => return None,
    };
    Some(counts)
}

/// Per-student responses: target counts distributed over the cohort's
/// respondents by ability rank (plus seeded tie-break noise), lowest
/// confidence to the lowest-ability respondents.
pub fn survey_responses(
    cohort: &Cohort,
    question: SurveyQuestion,
    wave: SurveyWave,
    seed: u64,
) -> Option<Vec<(usize, LikertResponse)>> {
    let counts = target_counts(question, wave, cohort.semester)?;
    let n = respondents(cohort.semester).min(cohort.len());
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed);
    // Respondent subset: the n most diligent students answer surveys.
    let mut by_diligence: Vec<&crate::cohort::Student> = cohort.students.iter().collect();
    by_diligence.sort_by(|a, b| b.diligence.partial_cmp(&a.diligence).expect("finite"));
    let respondents_subset: Vec<&crate::cohort::Student> =
        by_diligence.into_iter().take(n).collect();
    // Order by noisy ability (ascending): low ability → low confidence.
    // Noise is precomputed per student so the sort key is stable.
    let mut keyed: Vec<(f64, &crate::cohort::Student)> = respondents_subset
        .into_iter()
        .map(|s| (s.ability + rng.gen_range(-0.08..0.08), s))
        .collect();
    keyed.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
    let respondents_vec: Vec<&crate::cohort::Student> = keyed.into_iter().map(|(_, s)| s).collect();
    let mut out = Vec::with_capacity(n);
    let mut cursor = 0usize;
    for (cat, &count) in counts.iter().enumerate() {
        for _ in 0..count {
            if cursor >= respondents_vec.len() {
                break;
            }
            out.push((
                respondents_vec[cursor].id,
                LikertResponse::from_score(cat as i32 + 1),
            ));
            cursor += 1;
        }
    }
    Some(out)
}

/// Tabulated summary of one survey administration.
pub fn survey_summary(
    cohort: &Cohort,
    question: SurveyQuestion,
    wave: SurveyWave,
    seed: u64,
) -> Option<LikertSummary> {
    let responses = survey_responses(cohort, question, wave, seed)?;
    Some(LikertSummary::tabulate(
        &responses.iter().map(|(_, r)| *r).collect::<Vec<_>>(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cohort::Cohort;

    const SEED: u64 = 4;

    fn cohort(sem: Semester) -> Cohort {
        Cohort::generate(sem, SEED)
    }

    #[test]
    fn fig4a_final_counts_match_paper_exactly() {
        let f24 = survey_summary(
            &cohort(Semester::Fall2024),
            SurveyQuestion::NumbaCuda,
            SurveyWave::Final,
            SEED,
        )
        .unwrap();
        assert_eq!(f24.counts, [2, 2, 1, 2, 2], "Fall 2024 4a");
        let s25 = survey_summary(
            &cohort(Semester::Spring2025),
            SurveyQuestion::NumbaCuda,
            SurveyWave::Final,
            SEED,
        )
        .unwrap();
        assert_eq!(s25.counts, [0, 0, 9, 7, 5], "Spring 2025 4a");
        assert_eq!(
            s25.mode(),
            LikertResponse::Neutral,
            "'Neutral' the largest group"
        );
    }

    #[test]
    fn fig4b_confidence_improves_mid_to_final() {
        for sem in [Semester::Fall2024, Semester::Spring2025] {
            let c = cohort(sem);
            let mid =
                survey_summary(&c, SurveyQuestion::AwsCluster, SurveyWave::Mid, SEED).unwrap();
            let fin =
                survey_summary(&c, SurveyQuestion::AwsCluster, SurveyWave::Final, SEED).unwrap();
            assert!(
                fin.mean_score() > mid.mean_score() + 0.5,
                "{}: {} → {}",
                sem.label(),
                mid.mean_score(),
                fin.mean_score()
            );
        }
    }

    #[test]
    fn fig4c_confidence_dips_and_dip_is_smaller_in_spring() {
        let dip = |sem: Semester| {
            let c = cohort(sem);
            let mid = survey_summary(&c, SurveyQuestion::Profiling, SurveyWave::Mid, SEED).unwrap();
            let fin =
                survey_summary(&c, SurveyQuestion::Profiling, SurveyWave::Final, SEED).unwrap();
            mid.mean_score() - fin.mean_score()
        };
        let fall_dip = dip(Semester::Fall2024);
        let spring_dip = dip(Semester::Spring2025);
        assert!(fall_dip > 0.5, "Fall dip {fall_dip}");
        assert!(spring_dip > 0.0, "Spring still dips: {spring_dip}");
        assert!(
            spring_dip < fall_dip,
            "dip attenuated in Spring: {spring_dip} vs {fall_dip}"
        );
    }

    #[test]
    fn fig4d_final_only_and_spring_has_ten_disagreements() {
        let c25 = cohort(Semester::Spring2025);
        assert!(survey_responses(&c25, SurveyQuestion::MultiGpu, SurveyWave::Mid, SEED).is_none());
        let fin = survey_summary(&c25, SurveyQuestion::MultiGpu, SurveyWave::Final, SEED).unwrap();
        assert_eq!(
            fin.counts[0] + fin.counts[1],
            10,
            "ten students expressing disagreement"
        );
        // Most report neutral or higher.
        assert!(fin.counts[2] + fin.counts[3] + fin.counts[4] > 10);
        // Fall's small group was largely positive.
        let f24 = survey_summary(
            &cohort(Semester::Fall2024),
            SurveyQuestion::MultiGpu,
            SurveyWave::Final,
            SEED,
        )
        .unwrap();
        assert!(f24.top_two_box() > 0.6);
    }

    #[test]
    fn responses_assigned_by_ability_rank() {
        let c = cohort(Semester::Spring2025);
        let responses =
            survey_responses(&c, SurveyQuestion::AwsCluster, SurveyWave::Final, SEED).unwrap();
        // Spearman-ish check: mean ability of top-box responders exceeds
        // mean ability of bottom-box responders.
        let ability_of = |id: usize| c.students.iter().find(|s| s.id == id).unwrap().ability;
        let high: Vec<f64> = responses
            .iter()
            .filter(|(_, r)| r.score() >= 4)
            .map(|(id, _)| ability_of(*id))
            .collect();
        let low: Vec<f64> = responses
            .iter()
            .filter(|(_, r)| r.score() <= 3)
            .map(|(id, _)| ability_of(*id))
            .collect();
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        assert!(
            mean(&high) > mean(&low),
            "{} vs {}",
            mean(&high),
            mean(&low)
        );
    }

    #[test]
    fn respondent_counts_match() {
        for sem in [Semester::Fall2024, Semester::Spring2025] {
            let c = cohort(sem);
            for q in [
                SurveyQuestion::NumbaCuda,
                SurveyQuestion::AwsCluster,
                SurveyQuestion::Profiling,
            ] {
                for wave in [SurveyWave::Mid, SurveyWave::Final] {
                    let s = survey_summary(&c, q, wave, SEED).unwrap();
                    assert_eq!(
                        s.total(),
                        respondents(sem),
                        "{q:?} {wave:?} {}",
                        sem.label()
                    );
                }
            }
        }
    }

    #[test]
    fn final_confidence_correlates_with_course_totals() {
        // Cross-instrument coherence: the same latent students answer the
        // surveys and earn the grades, so Spearman(survey score, total)
        // must be clearly positive — the analysis an instructor would run.
        use crate::grades::simulate_grades;
        use sagegpu_stats::correlation::spearman;
        let c = cohort(Semester::Spring2025);
        let outcomes = simulate_grades(&c, SEED);
        let responses =
            survey_responses(&c, SurveyQuestion::AwsCluster, SurveyWave::Final, SEED).unwrap();
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for (student_id, r) in responses {
            let total = outcomes
                .iter()
                .find(|o| o.student_id == student_id)
                .expect("graded student")
                .total;
            xs.push(r.score() as f64);
            ys.push(total);
        }
        let rho = spearman(&xs, &ys).unwrap();
        assert!(rho > 0.3, "confidence should track outcomes, rho = {rho}");
    }

    #[test]
    fn deterministic_per_seed() {
        let c = cohort(Semester::Spring2025);
        let a = survey_responses(&c, SurveyQuestion::Profiling, SurveyWave::Mid, 9).unwrap();
        let b = survey_responses(&c, SurveyQuestion::Profiling, SurveyWave::Mid, 9).unwrap();
        assert_eq!(a, b);
    }
}
