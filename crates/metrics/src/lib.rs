//! Localization-error metrics and report rendering for the SAFELOC
//! reproduction.
//!
//! Every figure in the paper reports *localization error in meters*: the
//! Euclidean distance between the predicted reference point and the true
//! one. This crate converts label predictions into those distances
//! ([`localization_errors`]), summarizes them the way the paper's
//! box-and-whisker plots do ([`ErrorStats`]: best / mean / worst plus
//! percentiles), and renders the tables and heatmaps the bench harness
//! prints ([`table`]).
//!
//! # Example
//!
//! ```
//! use safeloc_dataset::Building;
//! use safeloc_metrics::{localization_errors, ErrorStats};
//!
//! let b = Building::tiny(0);
//! let truth = vec![0, 1, 2];
//! let predicted = vec![0, 1, 3]; // one neighbouring-RP miss
//! let errors = localization_errors(&b, &predicted, &truth);
//! let stats = ErrorStats::from_errors(&errors);
//! assert_eq!(stats.best, 0.0);
//! assert!(stats.worst > 0.0);
//! ```

pub mod error;
pub mod stats;
pub mod table;

pub use error::localization_errors;
pub use stats::ErrorStats;
pub use table::{heatmap, markdown_table};
