//! Plan-construction algorithms (§5.3, §6 of the paper) and the baselines
//! used in the evaluation (§7.1).
//!
//! * [`baselines`] — centralized evaluation and traditional *optimal
//!   single-sink operator placement* (oOP);
//! * [`pruning`] — the pruning principles of §6.1 (beneficial projections,
//!   partitioning multi-sink placements);
//! * [`amuse`] — the `aMuSE` / `aMuSE*` approximation algorithms (§6.2);
//! * [`optimal`] — exhaustive, branch-and-bound optimal construction within
//!   the `G^uni` class (Alg. 1, tractable only for tiny instances);
//! * [`multi_query`] — the sequential multi-query extension with projection
//!   reuse (§6.2).

pub mod amuse;
pub mod baselines;
pub mod multi_query;
pub mod optimal;
pub mod pruning;
