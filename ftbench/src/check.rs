//! The output check: every job's final values against a failure-free
//! `FtMode::None` run of the same engine, partition, program and iteration
//! budget, computed once per benchmark run.

use imitator_storage::codec::Encode;

/// How a job's values must relate to the reference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Rule {
    /// Every vertex value is bitwise equal to the reference.
    Bitwise,
    /// The ALS training RMSE is within this relative distance of the
    /// reference's. Used only for vertex-cut Migration, where re-homed
    /// edges reorder the f32 gather sums.
    RmseRel(f64),
}

/// Indices of the vertices whose encoded value differs from the reference;
/// a length difference makes every missing or extra index differ.
pub fn mismatches<V: Encode>(got: &[V], reference: &[V]) -> Vec<usize> {
    let (mut a, mut b) = (Vec::new(), Vec::new());
    let common = got.len().min(reference.len());
    (0..common)
        .filter(|&i| {
            a.clear();
            b.clear();
            got[i].encode(&mut a);
            reference[i].encode(&mut b);
            a != b
        })
        .chain(common..got.len().max(reference.len()))
        .collect()
}

/// Whether `mismatched` shows only the known EC Migration defect: there is
/// at least one mismatch, and every differing vertex is isolated and still
/// holds its initial value.
pub fn only_isolated_at_initial(
    mismatched: &[usize],
    isolated: impl Fn(usize) -> bool,
    at_initial: impl Fn(usize) -> bool,
) -> bool {
    !mismatched.is_empty() && mismatched.iter().all(|&v| isolated(v) && at_initial(v))
}

/// Applies `rule`. `rmse` is `(job, reference)` and is required by
/// [`Rule::RmseRel`]. Returns why the job fails, if it does.
pub fn verdict(rule: Rule, mismatched: usize, rmse: Option<(f64, f64)>) -> Result<(), String> {
    match rule {
        Rule::Bitwise if mismatched == 0 => Ok(()),
        Rule::Bitwise => Err(format!("{mismatched} vertices differ bitwise")),
        Rule::RmseRel(tol) => {
            let (got, want) = rmse.ok_or("ALS rule needs both RMSEs")?;
            let rel = (got - want).abs() / want.abs().max(f64::MIN_POSITIVE);
            if rel <= tol {
                Ok(())
            } else {
                Err(format!(
                    "RMSE {got} vs reference {want}: relative {rel:e} > {tol:e}"
                ))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imitator_algos::{als_rmse, AlsValue};
    use imitator_graph::gen;

    #[test]
    fn one_flipped_bit_is_rejected() {
        let reference: Vec<f64> = (0..1000).map(|i| 0.15 + f64::from(i) * 1e-3).collect();
        let mut got = reference.clone();
        assert!(mismatches(&got, &reference).is_empty());
        assert!(verdict(Rule::Bitwise, 0, None).is_ok());
        got[417] = f64::from_bits(got[417].to_bits() ^ 1);
        assert_eq!(mismatches(&got, &reference), vec![417]);
        assert!(verdict(Rule::Bitwise, 1, None).is_err());
    }

    #[test]
    fn missing_vertices_count_as_mismatches() {
        let reference = vec![1.0f32; 10];
        assert_eq!(mismatches(&reference[..7], &reference), vec![7, 8, 9]);
    }

    #[test]
    fn defect_signature_is_exact() {
        let isolated = |v: usize| v == 3 || v == 5;
        let at_initial = |v: usize| v != 5;
        assert!(only_isolated_at_initial(&[3], isolated, at_initial));
        assert!(!only_isolated_at_initial(&[], isolated, at_initial));
        assert!(!only_isolated_at_initial(&[3, 4], isolated, at_initial));
        assert!(!only_isolated_at_initial(&[5], isolated, at_initial));
    }

    #[test]
    fn als_rule_accepts_drift_and_rejects_a_wrong_answer() {
        let users = 40;
        let g = gen::bipartite_ratings(users, 4, 9);
        let reference: Vec<AlsValue> = (0..g.num_vertices())
            .map(|v| AlsValue((0..8).map(|k| 0.1 + 0.01 * (v * 8 + k) as f32).collect()))
            .collect();
        let want = als_rmse(&g, &reference);

        // Reordered f32 sums: one coordinate one ulp away.
        let mut drifted = reference.clone();
        drifted[3].0[2] = f32::from_bits(drifted[3].0[2].to_bits() + 1);
        let mismatched = mismatches(&drifted, &reference).len();
        assert_eq!(mismatched, 1);
        assert!(verdict(Rule::Bitwise, mismatched, None).is_err());
        let rmse = Some((als_rmse(&g, &drifted), want));
        assert!(verdict(Rule::RmseRel(1e-6), mismatched, rmse).is_ok());

        // A vertex left at a wrong value moves the RMSE far beyond 1e-6.
        let mut wrong = reference.clone();
        wrong[3].0.iter_mut().for_each(|x| *x = 1.0);
        let rmse = Some((als_rmse(&g, &wrong), want));
        assert!(verdict(Rule::RmseRel(1e-6), 1, rmse).is_err());
    }
}
