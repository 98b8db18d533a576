//! Seeded input generators. Values are f16-exact; gradients are small
//! integers, so every f16 summation order the lowerings may use gives the
//! same bits.

use crate::rng::Rng;
use dv_fp16::F16;
use dv_tensor::{Nc1hwc0, Nchw, PatchTensor, PoolParams, C0};

/// A feature map `(n, c, h, w)` generated in NCHW and converted to the
/// fractal layout, with values in `[-16, 16)` on a 0.25 grid.
pub fn feature_map(rng: &mut Rng, n: usize, c: usize, h: usize, w: usize) -> Nc1hwc0 {
    Nchw::from_fn(n, c, h, w, |_, _, _, _| {
        F16::from_f32((rng.next_u64() % 128) as f32 * 0.25 - 16.0)
    })
    .to_nc1hwc0()
}

/// An NCHW image `(1, c, hw, hw)` with values in `[-1, 1]` on a 0.125
/// grid (the range of the pinned model segments' inputs).
pub fn image(rng: &mut Rng, c: usize, hw: usize) -> Nchw {
    Nchw::from_fn(1, c, hw, hw, |_, _, _, _| {
        F16::from_f32((rng.next_u64() % 17) as f32 * 0.125 - 1.0)
    })
}

/// Integer gradients in `0..8` of shape `(n, c1, oh, ow)`.
pub fn gradients(rng: &mut Rng, n: usize, c1: usize, oh: usize, ow: usize) -> Nc1hwc0 {
    Nc1hwc0::from_fn(n, c1, oh, ow, |_, _, _, _, _| {
        F16::from_f32((rng.next_u64() % 8) as f32)
    })
}

/// A one-hot argmax mask: for every output position and channel, one
/// window tap set to 1.
pub fn one_hot_mask(
    rng: &mut Rng,
    n: usize,
    c1: usize,
    params: &PoolParams,
    oh: usize,
    ow: usize,
) -> PatchTensor {
    let mut mask = PatchTensor::zeros(n, c1, params.kh, params.kw, oh, ow);
    for ni in 0..n {
        for c1i in 0..c1 {
            for ohi in 0..oh {
                for owi in 0..ow {
                    for c0 in 0..C0 {
                        let tap = rng.below(params.kh * params.kw);
                        let (kh, kw) = (tap / params.kw, tap % params.kw);
                        mask.set(ni, c1i, kh, kw, ohi, owi, c0, F16::ONE);
                    }
                }
            }
        }
    }
    mask
}
