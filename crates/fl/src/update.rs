//! Client → server model updates.

use crate::delta::DeltaRepr;
use safeloc_nn::NamedParams;
use serde::{Deserialize, Serialize};

/// A local model returned to the server after client-side training.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClientUpdate {
    /// Which client produced the update.
    pub client_id: usize,
    /// The full LM weights (not a delta — aggregation rules that want the
    /// delta compute it against the current GM). For a compressed update
    /// these are the *re-materialized* weights `GM + decode(repr)`, so
    /// defenses screen exactly what crossed the wire.
    pub params: NamedParams,
    /// Number of local samples trained on (FedAvg weighting).
    pub num_samples: usize,
    /// The representation this update travels in (dense for the exact,
    /// bitwise-pinned path).
    pub repr: DeltaRepr,
}

impl ClientUpdate {
    /// Creates a dense (uncompressed) update — the exact seed path.
    pub fn new(client_id: usize, params: NamedParams, num_samples: usize) -> Self {
        Self {
            client_id,
            params,
            num_samples,
            repr: DeltaRepr::Dense,
        }
    }

    /// Creates an update carrying an explicit wire representation.
    pub fn with_repr(
        client_id: usize,
        params: NamedParams,
        num_samples: usize,
        repr: DeltaRepr,
    ) -> Self {
        Self {
            client_id,
            params,
            num_samples,
            repr,
        }
    }

    /// Parameter bytes this update occupies on the wire (see
    /// [`DeltaRepr::wire_bytes`]).
    pub fn wire_bytes(&self) -> usize {
        self.repr.wire_bytes(self.params.num_params())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use safeloc_nn::Matrix;

    #[test]
    fn holds_what_it_was_given() {
        let p = NamedParams::new(vec![("w".into(), Matrix::zeros(2, 2))]);
        let u = ClientUpdate::new(3, p.clone(), 40);
        assert_eq!(u.client_id, 3);
        assert_eq!(u.num_samples, 40);
        assert_eq!(u.params, p);
        assert_eq!(u.repr, DeltaRepr::Dense);
        assert_eq!(u.wire_bytes(), 4 * 4);
    }
}
