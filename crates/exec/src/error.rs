//! Typed execution errors.
//!
//! The simulator and the runtime are fallible (`Engine::run`,
//! `LocalRuntime::try_run`) and return [`ExecError`]; the panicking
//! shorthands (`simulate`, `LocalRuntime::execute`) remain as thin
//! wrappers for callers that treat these conditions as bugs.

use std::fmt;

/// Everything that can go wrong while simulating or physically running a
/// scheduled job.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// The schedule does not match the DAG it is being executed against.
    InvalidSchedule(String),
    /// The DAG has a cycle (no topological order exists).
    CyclicDag,
    /// A task never received one of its input partitions.
    MissingInput {
        /// Consuming stage index.
        stage: u32,
        /// Consuming task index.
        task: u32,
        /// Human-readable context (edge, timeout, …).
        detail: String,
    },
    /// A stage shuffles but declares no partitioning key.
    MissingOutputKey {
        /// Offending stage index.
        stage: u32,
    },
    /// A worker thread panicked while running a task of this stage.
    TaskPanicked {
        /// Stage index.
        stage: u32,
    },
    /// A task kept crashing past [`RecoveryPolicy::max_retries`].
    ///
    /// [`RecoveryPolicy::max_retries`]: crate::faults::RecoveryPolicy::max_retries
    RetriesExhausted {
        /// Stage index.
        stage: u32,
        /// Task index.
        task: u32,
        /// Attempts consumed (including the first execution).
        attempts: u32,
    },
    /// The surviving cluster is too small to host the job (e.g. after a
    /// server failure).
    InsufficientCapacity {
        /// Slots required (at least one per stage).
        needed: u32,
        /// Slots actually free.
        available: u32,
    },
    /// The data plane rejected an intermediate partition.
    DataPlane(String),
    /// A seeded coordinator crash killed the engine mid-append (the
    /// journal's torn tail survives; recover with
    /// [`JournalSession::resume`]).
    ///
    /// [`JournalSession::resume`]: crate::journal::JournalSession::resume
    CoordinatorCrash {
        /// Journal record index the crash tore.
        at_record: u64,
    },
    /// The write-ahead journal is inconsistent with the run replaying it
    /// (divergent decisions, conflicting commits, malformed records).
    Journal(String),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::InvalidSchedule(why) => write!(f, "invalid schedule: {why}"),
            ExecError::CyclicDag => write!(f, "DAG is cyclic; no topological order"),
            ExecError::MissingInput { stage, task, detail } => {
                write!(f, "stage {stage} task {task} missing input: {detail}")
            }
            ExecError::MissingOutputKey { stage } => {
                write!(f, "stage {stage} shuffles without an output_key")
            }
            ExecError::TaskPanicked { stage } => {
                write!(f, "a worker thread of stage {stage} panicked")
            }
            ExecError::RetriesExhausted { stage, task, attempts } => write!(
                f,
                "stage {stage} task {task} failed {attempts} attempts; retries exhausted"
            ),
            ExecError::InsufficientCapacity { needed, available } => write!(
                f,
                "cluster too small after failure: need {needed} slots, {available} free"
            ),
            ExecError::DataPlane(why) => write!(f, "data plane error: {why}"),
            ExecError::CoordinatorCrash { at_record } => {
                write!(f, "coordinator crashed at journal record {at_record}")
            }
            ExecError::Journal(why) => write!(f, "journal error: {why}"),
        }
    }
}

impl std::error::Error for ExecError {}
