//! One module per paper table/figure. Each exposes
//! `run_to(&mut String, &Options) -> Result<(), ExpError>` appending the
//! regenerated rows or series to a caller-owned buffer, plus a `run`
//! wrapper that prints the same text; the binaries in `src/bin/` are thin
//! wrappers over `run`. Writing into a buffer (rather than stdout) is what
//! lets the `suite` binary and the intra-figure fleets (`fig01`, `fig04`,
//! `fig05`, `fig06`, `ablation`) run units on worker threads and still
//! emit sections in a fixed, jobs-invariant order — see `crate::fleet` and
//! DESIGN.md §10. See DESIGN.md for the experiment index and
//! `EXPERIMENTS.md` for paper-vs-measured.

pub mod ablation;
pub mod chaos;
pub mod diurnal;
pub mod federate;
pub mod fig01;
pub mod fig04;
pub mod fig05;
pub mod fig06;
pub mod fig07;
pub mod fig08;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod memcomplexity;
pub mod platform;
pub mod resilience;
pub mod scenario;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod telemetry_report;
