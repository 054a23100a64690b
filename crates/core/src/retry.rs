//! Exponential backoff, shared by the simulator's retry accounting and
//! the serving-plane worker's dial loop.

/// Exponential backoff before retry `attempt` (0-based): `base · 2^attempt`.
/// The exponent saturates at 16 so pathological attempt counts cannot
/// overflow the double.
pub fn backoff_ms(base_ms: f64, attempt: u32) -> f64 {
    base_ms * 2f64.powi(attempt.min(16) as i32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_saturates() {
        assert_eq!(backoff_ms(50.0, 0), 50.0);
        assert_eq!(backoff_ms(50.0, 1), 100.0);
        assert_eq!(backoff_ms(50.0, 4), 800.0);
        // Saturation: attempts past 16 stop growing.
        assert_eq!(backoff_ms(1.0, 16), backoff_ms(1.0, 40));
    }
}
