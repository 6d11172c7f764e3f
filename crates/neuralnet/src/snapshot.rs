//! Network parameter snapshots: save and restore trained models.
//!
//! `Sequential` holds type-erased layers, so full serde is impractical;
//! instead a [`NetSnapshot`] pairs an architecture descriptor (enough to
//! rebuild the empty network) with the flat parameter tensors captured
//! in visit order. This is what lets a trained attacker be stored on
//! disk and reloaded without retraining.

use crate::models::{mlp, paper_cnn};
use crate::net::Sequential;
use crate::{FlatMlp, Layer};
use serde::{Deserialize, Serialize};
use tensorlite::Tensor;

/// The architectures this crate can rebuild from a descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ArchSpec {
    /// [`mlp`] with the given dimensions.
    Mlp {
        /// Input features.
        input_dim: usize,
        /// Hidden units.
        hidden: usize,
        /// Output classes.
        n_classes: usize,
    },
    /// [`paper_cnn`] with the given class count.
    PaperCnn {
        /// Output classes.
        n_classes: usize,
    },
}

impl ArchSpec {
    /// Builds an untrained network of this architecture.
    pub fn build(&self, seed: u64) -> Sequential {
        match *self {
            ArchSpec::Mlp { input_dim, hidden, n_classes } => {
                mlp(input_dim, hidden, n_classes, seed)
            }
            ArchSpec::PaperCnn { n_classes } => paper_cnn(n_classes, seed),
        }
    }
}

/// A serializable snapshot of a trained network.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetSnapshot {
    /// How to rebuild the empty network.
    pub arch: ArchSpec,
    /// Parameter tensors in visit order.
    params: Vec<Tensor>,
}

impl NetSnapshot {
    /// Captures the parameters of `net`, which must have been built
    /// with (or be structurally identical to) `arch`.
    pub fn capture(arch: ArchSpec, net: &mut Sequential) -> Self {
        let mut params = Vec::new();
        net.visit_params(&mut |p, _| params.push(p.clone()));
        Self { arch, params }
    }

    /// Rebuilds the network and restores the captured parameters.
    ///
    /// # Errors
    ///
    /// Rejects a snapshot whose parameter tensors differ from the
    /// architecture's in number or shape (a corrupt or hand-edited
    /// snapshot).
    pub fn restore(&self) -> Result<Sequential, String> {
        // Bound the architecture by the saved values before building
        // it: an MLP's exact parameter count, a CNN's output bias.
        let saved_len: usize = self.params.iter().map(Tensor::len).sum();
        let arch_floor = match self.arch {
            ArchSpec::Mlp { input_dim, hidden, n_classes } => {
                FlatMlp::param_len(input_dim, hidden, n_classes)
            }
            ArchSpec::PaperCnn { n_classes } => Some(n_classes),
        };
        if arch_floor.is_none_or(|n| n > saved_len) {
            return Err(format!("{saved_len} saved parameters do not fit {:?}", self.arch));
        }
        let mut net = self.arch.build(0);
        let mut want = Vec::new();
        net.visit_params(&mut |p, _| want.push(p.shape().to_vec()));
        let saved: Vec<&[usize]> = self.params.iter().map(Tensor::shape).collect();
        if saved != want {
            return Err(format!(
                "snapshot tensors of shapes {saved:?} do not fit {:?}, whose shapes are {want:?}",
                self.arch
            ));
        }
        let mut saved = self.params.iter();
        net.visit_params(&mut |p, _| *p = saved.next().expect("counted above").clone());
        Ok(net)
    }

    /// Serializes to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("snapshots always serialize")
    }

    /// Deserializes from [`NetSnapshot::to_json`] output.
    ///
    /// # Errors
    ///
    /// Returns the serde error message for malformed input.
    pub fn from_json(json: &str) -> Result<Self, String> {
        serde_json::from_str(json).map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::{train, TrainConfig};

    fn trained_mlp() -> (Sequential, Tensor, Vec<u32>) {
        let x = Tensor::from_rows(&[
            vec![1.0, 0.0],
            vec![0.9, 0.1],
            vec![0.0, 1.0],
            vec![0.1, 0.9],
        ]);
        let y = vec![0u32, 0, 1, 1];
        let mut net = mlp(2, 8, 2, 5);
        train(&mut net, &x, &y, &TrainConfig { epochs: 50, lr: 0.01, ..Default::default() });
        (net, x, y)
    }

    #[test]
    fn snapshot_roundtrips_predictions() {
        let (mut net, x, y) = trained_mlp();
        assert_eq!(net.predict(&x), y);
        let arch = ArchSpec::Mlp { input_dim: 2, hidden: 8, n_classes: 2 };
        let snap = NetSnapshot::capture(arch, &mut net);
        let mut restored = snap.restore().unwrap();
        assert_eq!(restored.predict(&x), y);
        // Logits identical, not just argmax.
        let a = net.logits(&x);
        let b = restored.logits(&x);
        assert_eq!(a, b);
    }

    #[test]
    fn json_roundtrip() {
        let (mut net, x, _) = trained_mlp();
        let arch = ArchSpec::Mlp { input_dim: 2, hidden: 8, n_classes: 2 };
        let snap = NetSnapshot::capture(arch, &mut net);
        let back = NetSnapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.restore().unwrap().logits(&x), net.logits(&x));
    }

    #[test]
    fn cnn_snapshot_restores() {
        let mut net = paper_cnn(3, 9);
        let arch = ArchSpec::PaperCnn { n_classes: 3 };
        let snap = NetSnapshot::capture(arch, &mut net);
        let mut restored = snap.restore().unwrap();
        let x = Tensor::zeros(&[1, 3, 32, 32]);
        assert_eq!(net.logits(&x), restored.logits(&x));
    }

    #[test]
    fn restoring_into_wrong_arch_is_an_error() {
        let (mut net, _, _) = trained_mlp();
        // Shapes recorded from the real net (2 inputs, 8 hidden) conflict
        // with each declared architecture at restore time.
        for wrong in [
            ArchSpec::Mlp { input_dim: 3, hidden: 8, n_classes: 2 },
            ArchSpec::Mlp { input_dim: 2, hidden: 9, n_classes: 2 },
            ArchSpec::PaperCnn { n_classes: 2 },
        ] {
            let err = NetSnapshot::capture(wrong, &mut net).restore().unwrap_err();
            assert!(err.contains("do not fit"), "{err}");
        }
        let arch = ArchSpec::Mlp { input_dim: 2, hidden: 8, n_classes: 2 };
        let mut snap = NetSnapshot::capture(arch, &mut net);
        snap.params.pop();
        assert!(snap.restore().is_err(), "a missing tensor restores");
        // Dimensions far past the saved values are refused before the
        // network is built.
        for huge in [
            ArchSpec::Mlp { input_dim: 2, hidden: 1 << 40, n_classes: 2 },
            ArchSpec::Mlp { input_dim: usize::MAX, hidden: 2, n_classes: 2 },
            ArchSpec::PaperCnn { n_classes: 1 << 40 },
        ] {
            snap.arch = huge;
            assert!(snap.restore().unwrap_err().contains("saved parameters do not fit"));
        }
    }

    #[test]
    fn a_tensor_short_of_its_shape_does_not_load() {
        let (mut net, _, _) = trained_mlp();
        let arch = ArchSpec::Mlp { input_dim: 2, hidden: 8, n_classes: 2 };
        let mut value = NetSnapshot::capture(arch, &mut net).to_value();
        // The output bias `[2]` carries two values; drop the last.
        let serde::Value::Object(snap) = &mut value else { panic!("a snapshot is an object") };
        let Some(serde::Value::Array(params)) = snap.get_mut("params") else { panic!("no params") };
        let Some(serde::Value::Object(bias)) = params.last_mut() else { panic!("no bias") };
        let Some(serde::Value::Array(data)) = bias.get_mut("data") else { panic!("no data") };
        data.pop();
        let err = NetSnapshot::from_json(&serde_json::to_string(&value).unwrap()).unwrap_err();
        assert!(err.contains("1 values for shape [2]"), "{err}");
    }

    #[test]
    fn malformed_json_is_an_error() {
        assert!(NetSnapshot::from_json("{not json").is_err());
    }
}
