use korch_ir::IrError;
use korch_tensor::TensorError;
use std::error::Error;
use std::fmt;

/// Error produced while interpreting a graph or plan.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// A tensor operation failed at a node.
    Tensor {
        /// Index of the failing node.
        node: usize,
        /// The underlying tensor error.
        source: TensorError,
    },
    /// The graph structure is inconsistent with execution.
    Graph(IrError),
    /// Wrong number or shape of fed inputs.
    Input(String),
    /// A kernel referenced a tensor that was never materialized.
    NotMaterialized {
        /// Producing node index.
        node: usize,
        /// Producing port.
        port: usize,
    },
    /// A kernel's body panicked while a runtime executed it; the panic
    /// was contained and the run failed in its place.
    KernelPanicked {
        /// Index of the kernel within its plan.
        kernel: usize,
        /// The panic payload's message, when it carried one.
        message: String,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Tensor { node, source } => write!(f, "node {node}: {source}"),
            ExecError::Graph(e) => write!(f, "graph error: {e}"),
            ExecError::Input(msg) => write!(f, "input error: {msg}"),
            ExecError::NotMaterialized { node, port } => {
                write!(
                    f,
                    "tensor of node {node} port {port} was never materialized"
                )
            }
            ExecError::KernelPanicked { kernel, message } => {
                write!(f, "kernel {kernel} panicked: {message}")
            }
        }
    }
}

impl Error for ExecError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ExecError::Tensor { source, .. } => Some(source),
            ExecError::Graph(e) => Some(e),
            _ => None,
        }
    }
}

impl From<IrError> for ExecError {
    fn from(e: IrError) -> Self {
        ExecError::Graph(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_node() {
        let e = ExecError::Tensor {
            node: 7,
            source: TensorError::AxisOutOfRange { axis: 2, rank: 1 },
        };
        assert!(e.to_string().contains("node 7"));
        assert!(e.source().is_some());
    }
}
