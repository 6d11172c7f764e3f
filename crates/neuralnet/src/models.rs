//! The paper's two deep models.

use crate::conv::{Conv2d, MaxPool2d};
use crate::layer::{Dense, Flatten, Layer, Relu};
use crate::net::Sequential;

/// The paper's MLP: one hidden layer of `hidden` units with ReLU.
///
/// The paper "use(s) the standard MLP with 100 hidden layers and Adam
/// solver" — scikit-learn's `MLPClassifier(hidden_layer_sizes=(100,))`,
/// i.e. one hidden layer of 100 units (the phrase describes the default
/// layer *size*).
///
/// # Panics
///
/// Panics on zero dimensions.
pub fn mlp(input_dim: usize, hidden: usize, n_classes: usize, seed: u64) -> Sequential {
    assert!(n_classes >= 2, "need at least two classes");
    Sequential::new(vec![
        Box::new(Dense::new(input_dim, hidden, seed)) as Box<dyn Layer>,
        Box::new(Relu::new()),
        Box::new(Dense::new(hidden, n_classes, seed.wrapping_add(1))),
    ])
}

/// Input channels (RGB line graphs).
pub const CNN_INPUT_CHANNELS: usize = 3;

/// The Fig. 7 CNN.
///
/// Two consecutive CONV(k=5, s=1, p=2) + ReLU + MAXPOOL(k=2, s=2)
/// stages reduce 32×32 to 8×8, followed by a fully-connected layer
/// producing class logits. Channel widths are 3 → 8 → 16, so the FC
/// layer consumes the 16·8·8 = 1024-dim flattened feature map.
///
/// # Panics
///
/// Panics if `n_classes < 2`.
pub fn paper_cnn(n_classes: usize, seed: u64) -> Sequential {
    assert!(n_classes >= 2, "need at least two classes");
    Sequential::new(vec![
        Box::new(Conv2d::new(CNN_INPUT_CHANNELS, 8, 5, 1, 2, seed)) as Box<dyn Layer>,
        Box::new(Relu::new()),
        Box::new(MaxPool2d::new(2, 2)),
        Box::new(Conv2d::new(8, 16, 5, 1, 2, seed.wrapping_add(1))),
        Box::new(Relu::new()),
        Box::new(MaxPool2d::new(2, 2)),
        Box::new(Flatten::new()),
        Box::new(Dense::new(16 * 8 * 8, n_classes, seed.wrapping_add(2))),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::{train, TrainConfig};
    use tensorlite::Tensor;

    #[test]
    fn cnn_shapes_flow_as_in_fig7() {
        let mut net = paper_cnn(4, 1);
        let x = Tensor::zeros(&[2, 3, 32, 32]);
        let logits = net.logits(&x);
        assert_eq!(logits.shape(), &[2, 4]);
    }

    #[test]
    fn mlp_has_expected_parameter_count() {
        let mut net = mlp(50, 100, 4, 1);
        assert_eq!(net.n_params(), 50 * 100 + 100 + 100 * 4 + 4);
    }

    #[test]
    fn cnn_learns_color_classes() {
        // Two classes of trivially separable images: red-ish vs blue-ish.
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..12 {
            let v = 0.5 + (i as f32) * 0.02;
            let mut red = vec![0.0f32; 3 * 32 * 32];
            red[..32 * 32].iter_mut().for_each(|p| *p = v);
            rows.push(red);
            labels.push(0u32);
            let mut blue = vec![0.0f32; 3 * 32 * 32];
            blue[2 * 32 * 32..].iter_mut().for_each(|p| *p = v);
            rows.push(blue);
            labels.push(1u32);
        }
        let n = rows.len();
        let data: Vec<f32> = rows.concat();
        let x = Tensor::from_vec(data, &[n, 3, 32, 32]);
        let mut net = paper_cnn(2, 3);
        let cfg = TrainConfig { epochs: 8, batch_size: 8, lr: 5e-3, ..Default::default() };
        train(&mut net, &x, &labels, &cfg);
        assert_eq!(net.predict(&x), labels);
    }

    #[test]
    #[should_panic(expected = "two classes")]
    fn rejects_single_class() {
        mlp(10, 10, 1, 0);
    }
}
