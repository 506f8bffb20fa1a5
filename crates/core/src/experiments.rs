//! Experiment drivers: one module per table/figure of the paper's
//! evaluation, each producing plain data that the `charm-bench` binaries
//! render as CSV and ASCII plots.
//!
//! | module | reproduces |
//! |---|---|
//! | [`fig03`] | Figure 3 — time vs size on two interconnects, the reported 32 K break and the hidden 16 K break |
//! | [`fig04`] | Figure 4 — Taurus send/recv overhead + latency/bandwidth with randomized log-uniform sizes |
//! | [`table05`] | Figure 5 — the CPU characteristics table |
//! | [`fig07`] | Figure 7 — MultiMAPS plateaus and stride effect on the Opteron |
//! | [`fig08`] | Figure 8 — the noisy replication attempt on the Pentium 4 |
//! | [`fig09`] | Figure 9 — vectorization × unrolling on the i7-2600 |
//! | [`fig10`] | Figure 10 — DVFS ondemand nloops facets |
//! | [`fig11`] | Figure 11 — real-time scheduler bimodality on the ARM |
//! | [`fig12`] | Figure 12 — the ARM paging anomaly across four runs |
//! | [`fig13`] | Figure 13 — the cause-and-effect factor diagram |
//! | [`convolution`] | Figure 1's use-case — prediction error of opaque- vs white-box-instantiated models |

pub mod convolution;
pub mod fig03;
pub mod fig04;
pub mod fig07;
pub mod fig08;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod plot;
pub mod table05;
