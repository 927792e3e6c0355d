//! The ways a program can go wrong.

use crate::state::NodeRef;
use cmm_ir::expr::OpError;
use cmm_ir::Name;
use std::fmt;

/// Why the abstract machine went wrong (reached a state with no permitted
/// transition other than normal termination).
///
/// Going wrong models the paper's *unchecked run-time errors*: for
/// example, "invoking a dead continuation is an unchecked run-time
/// error, which it is up to the high-level front end to avoid" (§4.1),
/// and the behaviour of a fast-but-dangerous primitive that fails "is
/// unspecified" (§4.3).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Wrong {
    /// A name was evaluated that is bound nowhere (use before
    /// definition, or an undeclared name that escaped validation).
    UnboundName(NodeRef, Name),
    /// A call's callee did not evaluate to code.
    NotCode(NodeRef),
    /// An operand that must be `Bits` was a `Code` or `Cont` value.
    NotBits(NodeRef),
    /// Binary operands had different widths.
    WidthMismatch(NodeRef),
    /// A fast-but-dangerous primitive failed (`%divu` by zero, ...).
    OpFailed(NodeRef, OpError),
    /// `cut to` targeted a continuation whose activation is dead
    /// (uid not found on the stack).
    DeadContinuation(NodeRef),
    /// `cut to` found the continuation's activation, but the suspended
    /// call site does not list the continuation in `also cuts to`.
    CutNotAnnotated(NodeRef),
    /// Unwinding or cutting tried to discard an activation whose
    /// suspended call site has no `also aborts` annotation.
    NotAbortable(NodeRef),
    /// `Exit <j/n>` did not match the suspended call site's number of
    /// alternate return continuations.
    ReturnArityMismatch {
        /// Where the return happened.
        at: NodeRef,
        /// `n` claimed by the `return <j/n>`.
        claimed: u32,
        /// Alternates actually declared at the call site.
        actual: u32,
    },
    /// A `CopyIn` needed more values than the argument-passing area held.
    TooFewValues(NodeRef),
    /// The program exited abnormally (`Exit <j/n>`, j ≠ n or n ≠ 0) with
    /// an empty stack.
    AbnormalTopLevelExit(NodeRef),
    /// The run-time system attempted an operation the `Yield` rules do
    /// not permit (e.g. resuming at a node not in the topmost bundle).
    RtsViolation(String),
    /// There is no procedure with the given name.
    NoSuchProc(NodeRef, Name),
    /// The machine was used while not in a usable status (e.g. `run`
    /// after it went wrong).
    NotRunnable,
    /// A `cmm-chaos` fault plan injected a failure into a Table 1
    /// operation (`op @ invocation`, in `FaultPlan` terms).
    ChaosFault {
        /// The faulted operation's stable name.
        op: String,
        /// The 1-based invocation count at which it tripped.
        invocation: u64,
    },
}

impl fmt::Display for Wrong {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Wrong::UnboundName(at, n) => write!(f, "{at}: unbound name `{n}`"),
            Wrong::NotCode(at) => write!(f, "{at}: callee is not code"),
            Wrong::NotBits(at) => write!(f, "{at}: operand is not a bits value"),
            Wrong::WidthMismatch(at) => write!(f, "{at}: operand widths differ"),
            Wrong::OpFailed(at, e) => write!(f, "{at}: primitive failed: {e}"),
            Wrong::DeadContinuation(at) => write!(f, "{at}: cut to a dead continuation"),
            Wrong::CutNotAnnotated(at) => {
                write!(f, "{at}: cut to a continuation not listed in `also cuts to`")
            }
            Wrong::NotAbortable(at) => write!(
                f,
                "{at}: discarding an activation whose call site has no `also aborts` annotation"
            ),
            Wrong::ReturnArityMismatch { at, claimed, actual } => write!(
                f,
                "{at}: return declares {claimed} alternate continuations but the call site has {actual}"
            ),
            Wrong::TooFewValues(at) => {
                write!(f, "{at}: too few values in the argument-passing area")
            }
            Wrong::AbnormalTopLevelExit(at) => {
                write!(f, "{at}: abnormal exit with an empty stack")
            }
            Wrong::RtsViolation(msg) => write!(f, "run-time system violation: {msg}"),
            Wrong::NoSuchProc(at, n) => write!(f, "{at}: no such procedure `{n}`"),
            Wrong::NotRunnable => write!(f, "machine is not in a runnable state"),
            Wrong::ChaosFault { op, invocation } => {
                write!(f, "chaos: injected fault in {op} at invocation {invocation}")
            }
        }
    }
}

impl std::error::Error for Wrong {}

#[cfg(test)]
mod tests {
    use super::*;
    use cmm_cfg::NodeId;

    #[test]
    fn display_is_informative() {
        let at = NodeRef::new("f", NodeId(2));
        assert!(Wrong::DeadContinuation(at.clone())
            .to_string()
            .contains("dead"));
        assert!(Wrong::OpFailed(at, OpError::DivideByZero)
            .to_string()
            .contains("zero"));
    }
}
