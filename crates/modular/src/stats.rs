//! Routing telemetry: how evenly the selector spreads its gate mass.

/// Normalised Shannon entropy of a gate-probability vector
/// (1.0 = uniform over its modules, 0.0 = one-hot or degenerate).
/// The online gate-probability telemetry sees one such vector per layer
/// in every accepted edge update.
pub fn normalized_entropy(probs: &[f32]) -> f64 {
    let n = probs.len() as f64;
    if n <= 1.0 {
        return 0.0;
    }
    let h: f64 = probs
        .iter()
        .map(|&p| {
            let p = p as f64;
            if p > 0.0 {
                -p * p.ln()
            } else {
                0.0
            }
        })
        .sum();
    h / n.ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entropy_is_one_for_uniform_and_lower_when_skewed() {
        assert!((normalized_entropy(&[0.25; 4]) - 1.0).abs() < 1e-9);
        assert!(normalized_entropy(&[0.97, 0.01, 0.01, 0.01]) < 0.3);
    }
}
