//! The canonical verdict spelling.
//!
//! [`verdict_str`] names an [`scv_mc::Outcome`] with one short string,
//! shared by the `verify/<protocol>` run reports that
//! [`scv_mc::VerifySystem::try_search`] emits, the CLI summary lines, and
//! the benchmark records.
//!
//! ```
//! use sc_verify::prelude::*;
//!
//! let outcome = verify_protocol(
//!     MsiProtocol::new(Params::new(2, 1, 2)),
//!     VerifyOptions::new()
//!         .max_states(3_000)
//!         .symmetry(SymmetryMode::Full),
//! );
//! assert_eq!(verdict_str(&outcome), "bounded");
//! ```

pub use scv_mc::verdict_str;

#[cfg(test)]
mod tests {
    use super::*;
    use scv_mc::{
        verify_protocol, Budget, CheckpointError, SymmetryMode, VerifyOptions, VerifySystem,
    };
    use scv_protocol::MsiProtocol;
    use scv_types::Params;

    #[test]
    fn verdict_strings_are_stable() {
        let bounded = verify_protocol(
            MsiProtocol::new(Params::new(2, 1, 2)),
            VerifyOptions::new().max_states(100),
        );
        assert_eq!(verdict_str(&bounded), "bounded");
        let verified = verify_protocol(
            MsiProtocol::new(Params::new(1, 1, 1)),
            VerifyOptions::new().max_states(500_000),
        );
        assert_eq!(verdict_str(&verified), "verified");
    }

    #[test]
    fn run_controlled_surfaces_inconclusive_runs() {
        let opts = VerifyOptions::new()
            .max_states(100_000)
            .budget(Budget::unlimited().states(500));
        let out =
            VerifySystem::with_symmetry(MsiProtocol::new(Params::new(2, 1, 2)), opts.symmetry)
                .try_search(&opts)
                .unwrap();
        assert_eq!(verdict_str(&out), "inconclusive");
        let cov = out.coverage().unwrap();
        assert!(cov.explored >= 500);

        // A bad resume path is an error, not a panic.
        let opts = VerifyOptions::new().resume_from("/nonexistent/scv.ckpt");
        let err =
            VerifySystem::with_symmetry(MsiProtocol::new(Params::new(2, 1, 2)), SymmetryMode::Off)
                .try_search(&opts)
                .unwrap_err();
        assert!(matches!(err, CheckpointError::Io(_)), "{err}");
    }
}
