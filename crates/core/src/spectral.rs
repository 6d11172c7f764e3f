//! The spectral-feature baseline the paper dismisses.
//!
//! §I: "Establishing that simple features of elevation profiles, e.g.,
//! spectral features, are insufficient, we devise ... text-like ... and
//! image-like representation(s)". This module implements that rejected
//! baseline so the claim is reproducible: profiles are resampled to a
//! power-of-two length, transformed with a from-scratch radix-2 FFT,
//! and summarized as magnitude spectra plus basic route statistics.
//! The `ablation_spectral_baseline` bench compares it against the
//! paper's representations.

use imgrep::resample_mean;

/// In-place radix-2 Cooley–Tukey FFT over `(re, im)` pairs.
///
/// # Panics
///
/// Panics unless the length is a power of two.
pub fn fft(re: &mut [f64], im: &mut [f64]) {
    let n = re.len();
    assert_eq!(n, im.len(), "re/im length mismatch");
    assert!(n.is_power_of_two(), "fft length must be a power of two");
    if n <= 1 {
        return;
    }
    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = (i as u32).reverse_bits() >> (32 - bits);
        let j = j as usize;
        if j > i {
            re.swap(i, j);
            im.swap(i, j);
        }
    }
    // Butterflies.
    let mut len = 2;
    while len <= n {
        let ang = -2.0 * std::f64::consts::PI / len as f64;
        let (wr, wi) = (ang.cos(), ang.sin());
        for start in (0..n).step_by(len) {
            let (mut cr, mut ci) = (1.0f64, 0.0f64);
            for k in 0..len / 2 {
                let even = start + k;
                let odd = start + k + len / 2;
                let tr = re[odd] * cr - im[odd] * ci;
                let ti = re[odd] * ci + im[odd] * cr;
                re[odd] = re[even] - tr;
                im[odd] = im[even] - ti;
                re[even] += tr;
                im[even] += ti;
                let (ncr, nci) = (cr * wr - ci * wi, cr * wi + ci * wr);
                cr = ncr;
                ci = nci;
            }
        }
        len <<= 1;
    }
}

/// Number of resampled points fed to the FFT.
pub const SPECTRAL_POINTS: usize = 128;

/// Extracts the baseline feature vector for one profile:
/// `[mean, std, min, max, total ascent, total descent]` followed by the
/// first `SPECTRAL_POINTS / 2` FFT magnitudes of the mean-removed
/// signal, L2-normalized.
///
/// Empty profiles map to the zero vector.
pub fn spectral_features(profile: &[f64]) -> Vec<f32> {
    let dim = 6 + SPECTRAL_POINTS / 2;
    if profile.is_empty() {
        return vec![0.0; dim];
    }
    let resampled = resample_mean(profile, SPECTRAL_POINTS);
    let n = resampled.len() as f64;
    let mean = resampled.iter().sum::<f64>() / n;
    let var = resampled.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
    let min = resampled.iter().copied().fold(f64::INFINITY, f64::min);
    let max = resampled.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let (mut ascent, mut descent) = (0.0f64, 0.0f64);
    for w in resampled.windows(2) {
        let d = w[1] - w[0];
        if d > 0.0 {
            ascent += d;
        } else {
            descent -= d;
        }
    }

    let mut re: Vec<f64> = resampled.iter().map(|v| v - mean).collect();
    let mut im = vec![0.0f64; re.len()];
    fft(&mut re, &mut im);
    let mut features = vec![
        mean as f32,
        var.sqrt() as f32,
        min as f32,
        max as f32,
        ascent as f32,
        descent as f32,
    ];
    for k in 0..SPECTRAL_POINTS / 2 {
        features.push((re[k] * re[k] + im[k] * im[k]).sqrt() as f32);
    }
    // L2 normalization keeps the scales comparable across profiles.
    let norm: f32 = features.iter().map(|v| v * v).sum::<f32>().sqrt();
    if norm > 0.0 {
        for f in &mut features {
            *f /= norm;
        }
    }
    features
}

/// Runs the same k-fold evaluation as [`crate::text::evaluate_text`],
/// but over the spectral baseline features — reproducing the paper's
/// negative result that these are weaker than the devised
/// representations.
pub fn evaluate_spectral(
    ds: &datasets::Dataset,
    model: crate::text::TextModel,
    cfg: &crate::text::TextAttackConfig,
) -> evalkit::FoldSummary {
    assert!(ds.n_classes() >= 2, "need at least two classes");
    let features: Vec<Vec<f32>> =
        ds.samples().iter().map(|s| spectral_features(&s.elevation)).collect();
    let labels = ds.labels();
    let folds = datasets::split::stratified_k_fold(&labels, cfg.folds, cfg.seed);
    let executor = exec::Executor::from_env();
    let gather = |rows: &[usize]| {
        let dense: Vec<Vec<f32>> = rows.iter().map(|&i| features[i].clone()).collect();
        sparsemat::CsrMatrix::from_dense_rows(&dense)
    };
    evalkit::evaluate_folds(&labels, ds.n_classes(), &folds, &executor, |_, train, test| {
        let yt: Vec<u32> = train.iter().map(|&i| labels[i]).collect();
        let mut fitted =
            crate::text::FittedTextModel::fit(model, &gather(train), &yt, cfg, cfg.seed ^ 0x5bec);
        fitted.predict(&gather(test))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fft_of_impulse_is_flat() {
        let mut re = vec![0.0; 8];
        let mut im = vec![0.0; 8];
        re[0] = 1.0;
        fft(&mut re, &mut im);
        for k in 0..8 {
            assert!((re[k] - 1.0).abs() < 1e-12, "re[{k}] = {}", re[k]);
            assert!(im[k].abs() < 1e-12);
        }
    }

    #[test]
    fn fft_detects_a_pure_tone() {
        let n = 64;
        let mut re: Vec<f64> =
            (0..n).map(|t| (2.0 * std::f64::consts::PI * 5.0 * t as f64 / n as f64).cos()).collect();
        let mut im = vec![0.0; n];
        fft(&mut re, &mut im);
        let mags: Vec<f64> =
            re.iter().zip(&im).map(|(r, i)| (r * r + i * i).sqrt()).collect();
        let peak = mags
            .iter()
            .take(n / 2)
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(peak, 5);
    }

    #[test]
    fn fft_matches_parseval() {
        let n = 32;
        let sig: Vec<f64> = (0..n).map(|t| ((t * t) % 13) as f64 - 6.0).collect();
        let mut re = sig.clone();
        let mut im = vec![0.0; n];
        fft(&mut re, &mut im);
        let time_energy: f64 = sig.iter().map(|v| v * v).sum();
        let freq_energy: f64 =
            re.iter().zip(&im).map(|(r, i)| r * r + i * i).sum::<f64>() / n as f64;
        assert!((time_energy - freq_energy).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn fft_rejects_non_power_of_two() {
        fft(&mut [0.0; 6], &mut [0.0; 6]);
    }

    #[test]
    fn features_have_fixed_dimension_and_unit_norm() {
        let profile: Vec<f64> = (0..300).map(|t| 100.0 + (t as f64 * 0.1).sin() * 20.0).collect();
        let f = spectral_features(&profile);
        assert_eq!(f.len(), 6 + SPECTRAL_POINTS / 2);
        let norm: f32 = f.iter().map(|v| v * v).sum::<f32>().sqrt();
        assert!((norm - 1.0).abs() < 1e-4);
    }

    #[test]
    fn empty_profile_is_zero_vector() {
        let f = spectral_features(&[]);
        assert!(f.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn flat_and_hilly_profiles_differ() {
        let flat = spectral_features(&vec![5.0; 200]);
        let hilly: Vec<f64> = (0..200).map(|t| 5.0 + (t as f64 * 0.5).sin() * 50.0).collect();
        let hilly = spectral_features(&hilly);
        let dist: f32 =
            flat.iter().zip(&hilly).map(|(a, b)| (a - b).powi(2)).sum::<f32>().sqrt();
        assert!(dist > 0.1);
    }
}
