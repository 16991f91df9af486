//! `TopKDelta`: sparse round-over-round weight deltas with client-side
//! error feedback.
//!
//! The sender and receiver share a *base* snapshot (the last
//! reconstruction both ends agree on). Each frame carries, per tensor,
//! only the `k` largest-magnitude entries of
//! `delta = current − base + residual`, where `residual` is the sender's
//! accumulated unsent mass (error feedback: what is not transmitted now
//! is retried next round instead of being lost). The receiver
//! reconstructs `base + sent`.
//!
//! Payload layout, per tensor: `u32 rank`, `u32 dims[rank]`, `u32 k`,
//! then `k` pairs of `u32 index`, `f32 value`, indices strictly
//! ascending. `k` is fixed by shape and [`keep_count`] — never by the
//! values — so encoded lengths stay timing-simulation friendly.
//!
//! Selection is deterministic: entries are ranked by `|delta|` under
//! `f32::total_cmp` (NaNs rank highest, so a diverged run keeps shipping
//! its poison honestly) with ties broken toward the lower index.

use aergia_tensor::{Shape, Tensor};

use crate::wire::{read_all, Wire};
use crate::CodecError;

/// Elements kept for a tensor of `numel` elements at `keep_permille`:
/// `⌊numel·keep_permille/1000⌋`, at least 1 (unless the tensor is empty),
/// at most `numel`.
pub fn keep_count(numel: usize, keep_permille: u16) -> usize {
    if numel == 0 {
        return 0;
    }
    (numel * keep_permille as usize / 1000).clamp(1, numel)
}

/// Appends the sparse encoding of `current − base + residual` to `out`,
/// updating `residual` (when provided) to the unsent remainder.
///
/// `residual` tensors are zero-initialised on first use by the caller;
/// pass `None` for one-shot deltas that carry no error feedback.
///
/// # Panics
///
/// Panics if `current`, `base` and `residual` disagree in structure —
/// these all derive from one model template, so a mismatch is a bug.
pub fn encode_payload_into(
    current: &[Tensor],
    base: &[Tensor],
    keep_permille: u16,
    mut residual: Option<&mut [Tensor]>,
    out: &mut Vec<u8>,
) {
    assert_eq!(current.len(), base.len(), "topk: current/base tensor count");
    if let Some(res) = residual.as_ref() {
        assert_eq!(res.len(), current.len(), "topk: residual tensor count");
    }
    crate::telemetry_hooks::record_dense_equiv(crate::CodecId::TopKDelta, current);
    let mut delta: Vec<f32> = Vec::new();
    let mut order: Vec<u32> = Vec::new();
    for (i, (cur, bas)) in current.iter().zip(base).enumerate() {
        assert_eq!(cur.dims(), bas.dims(), "topk: current/base shape");
        let numel = cur.numel();
        delta.clear();
        delta.extend(cur.data().iter().zip(bas.data()).map(|(c, b)| c - b));
        if let Some(res) = residual.as_ref() {
            for (d, r) in delta.iter_mut().zip(res[i].data()) {
                *d += r;
            }
        }

        cur.shape().put(out);
        let k = keep_count(numel, keep_permille);
        k.put(out);

        // Rank by (|delta| descending, index ascending) — a total order,
        // so the kept set is unique and selection order cannot leak in.
        order.clear();
        order.extend(0..numel as u32);
        let rank = |&j: &u32| delta[j as usize].abs();
        if k < numel {
            order.select_nth_unstable_by(k, |a, b| rank(b).total_cmp(&rank(a)).then(a.cmp(b)));
            order.truncate(k);
        }
        order.sort_unstable();
        for &j in &order {
            (j, delta[j as usize]).put(out);
        }
        if let Some(res) = residual.as_mut() {
            // Error feedback: the residual becomes the unsent remainder —
            // the exact delta with the transmitted entries zeroed.
            let r = res[i].data_mut();
            r.copy_from_slice(&delta);
            for &j in &order {
                r[j as usize] = 0.0;
            }
        }
    }
}

/// Reconstructs `base + sent` from a sparse payload of `tensor_count`
/// tensors.
///
/// # Errors
///
/// Returns [`CodecError::BaseMismatch`] if the payload's shapes disagree
/// with `base`, and [`CodecError`] on structural corruption.
pub fn decode_payload(
    payload: &[u8],
    tensor_count: usize,
    base: &[Tensor],
) -> Result<Vec<Tensor>, CodecError> {
    if tensor_count != base.len() {
        return Err(CodecError::BaseMismatch("tensor count"));
    }
    read_all(payload, |r| {
        let mut out = Vec::with_capacity(tensor_count);
        for bas in base {
            let shape = Shape::get(r)?;
            if shape.dims() != bas.dims() {
                return Err(CodecError::BaseMismatch("tensor shape"));
            }
            let numel = shape.numel();
            let k = usize::get(r)?;
            if k > numel {
                return Err(CodecError::Corrupt("sparse count exceeds element count"));
            }
            let mut t = bas.clone();
            let data = t.data_mut();
            let mut prev: Option<u32> = None;
            for _ in 0..k {
                let (idx, val) = <(u32, f32)>::get(r)?;
                if idx as usize >= numel {
                    return Err(CodecError::Corrupt("sparse index out of range"));
                }
                if prev.is_some_and(|p| idx <= p) {
                    return Err(CodecError::Corrupt("sparse indices not ascending"));
                }
                prev = Some(idx);
                data[idx as usize] += val;
            }
            out.push(t);
        }
        Ok(out)
    })
}

/// Zero tensors matching `template`'s structure — a fresh error-feedback
/// residual.
pub fn zero_residual(template: &[Tensor]) -> Vec<Tensor> {
    template.iter().map(|t| Tensor::zeros(t.dims())).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sizing::ShapeSpec;

    fn t(vals: &[f32]) -> Tensor {
        Tensor::from_vec(vals.to_vec(), &[vals.len()]).unwrap()
    }

    #[test]
    fn keep_count_floors_and_clamps() {
        assert_eq!(keep_count(1000, 50), 50);
        assert_eq!(keep_count(10, 50), 1, "floor would be 0; at least one element ships");
        assert_eq!(keep_count(10, 1000), 10);
        assert_eq!(keep_count(0, 50), 0);
    }

    #[test]
    fn largest_magnitude_entries_ship_and_reconstruct_exactly() {
        let base = vec![t(&[1.0, 1.0, 1.0, 1.0])];
        let current = vec![t(&[1.5, 9.0, 1.0, -7.0])];
        let mut payload = Vec::new();
        // 500‰ of 4 → keep 2: indices 1 (+8) and 3 (−8).
        encode_payload_into(&current, &base, 500, None, &mut payload);
        assert_eq!(payload.len(), ShapeSpec::of(&base).topk_payload_len(500));
        let decoded = decode_payload(&payload, 1, &base).unwrap();
        assert_eq!(decoded[0].data(), &[1.0, 9.0, 1.0, -7.0]);
    }

    #[test]
    fn error_feedback_residual_holds_the_unsent_remainder() {
        let base = vec![t(&[0.0, 0.0, 0.0, 0.0])];
        let current = vec![t(&[0.1, 4.0, -0.2, 0.3])];
        let mut residual = zero_residual(&base);
        let mut payload = Vec::new();
        encode_payload_into(&current, &base, 250, Some(&mut residual[..]), &mut payload); // keep 1
        let decoded = decode_payload(&payload, 1, &base).unwrap();
        assert_eq!(decoded[0].data(), &[0.0, 4.0, 0.0, 0.0]);
        assert_eq!(residual[0].data(), &[0.1, 0.0, -0.2, 0.3]);

        // Next round, the residual pushes the starved entries forward:
        // sent = delta + residual at the top entry.
        let mut payload2 = Vec::new();
        encode_payload_into(&decoded, &decoded, 250, Some(&mut residual[..]), &mut payload2);
        let decoded2 = decode_payload(&payload2, 1, &decoded).unwrap();
        assert_eq!(decoded2[0].data(), &[0.0, 4.0, 0.0, 0.3]);
        assert_eq!(residual[0].data(), &[0.1, 0.0, -0.2, 0.0]);
    }

    #[test]
    fn ties_break_toward_the_lower_index() {
        let base = vec![t(&[0.0, 0.0, 0.0])];
        let current = vec![t(&[2.0, -2.0, 2.0])];
        let mut payload = Vec::new();
        encode_payload_into(&current, &base, 334, None, &mut payload); // keep 1
        let decoded = decode_payload(&payload, 1, &base).unwrap();
        assert_eq!(decoded[0].data(), &[2.0, 0.0, 0.0]);
    }

    #[test]
    fn mismatched_base_is_rejected() {
        let base = vec![t(&[0.0, 0.0])];
        let current = vec![t(&[1.0, 2.0])];
        let mut payload = Vec::new();
        encode_payload_into(&current, &base, 1000, None, &mut payload);
        let wrong_shape = vec![t(&[0.0, 0.0, 0.0])];
        assert!(matches!(
            decode_payload(&payload, 1, &wrong_shape),
            Err(CodecError::BaseMismatch(_))
        ));
        assert!(matches!(decode_payload(&payload, 2, &base), Err(CodecError::BaseMismatch(_))));
    }

    #[test]
    fn corrupt_sparse_structure_is_rejected() {
        let base = vec![t(&[0.0, 0.0])];
        let current = vec![t(&[1.0, 2.0])];
        let mut payload = Vec::new();
        encode_payload_into(&current, &base, 1000, None, &mut payload);
        // Swap the two entries' indices so they are no longer ascending.
        let mut bad = payload.clone();
        bad[12..16].copy_from_slice(&1u32.to_le_bytes());
        bad[20..24].copy_from_slice(&0u32.to_le_bytes());
        assert!(matches!(decode_payload(&bad, 1, &base), Err(CodecError::Corrupt(_))));
    }
}
