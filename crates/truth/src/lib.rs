//! Truth tables and NPN classification.
//!
//! This crate provides the Boolean-function substrate for the mig-fh
//! workspace, a reproduction of *Optimizing Majority-Inverter Graphs with
//! Functional Hashing* (Soeken et al., DATE 2016):
//!
//! * [`TruthTable`] — complete function tables over up to 16 variables with
//!   the usual Boolean algebra, cofactors, support computation and variable
//!   remapping;
//! * [`npn_canonize`] / [`Npn4Canonizer`] — exact NPN canonization
//!   (paper §II-D) with composable, invertible [`NpnTransform`]s, which the
//!   functional-hashing engine uses to map database structures onto cut
//!   leaves. Four-input functions are answered from one process-wide
//!   table of all 2^16 functions ([`npn4_class`]).
//!
//! # Examples
//!
//! ```
//! use truth::{npn_canonize, TruthTable};
//!
//! // The 4-input parity function and its complement share an NPN class.
//! let parity = TruthTable::from_hex(4, "6996")?;
//! let canon = npn_canonize(&parity);
//! assert_eq!(npn_canonize(&!parity).representative, canon.representative);
//! # Ok::<(), truth::ParseTableError>(())
//! ```

mod npn;
mod table;

pub use npn::{
    npn4_class, npn4_class_representatives, npn4_class_sizes, npn_canonize, Npn4Canonizer,
    NpnCanon, NpnTransform, MAX_NPN_VARS,
};
pub use table::{ParseTableError, TruthTable, MAX_VARS};
