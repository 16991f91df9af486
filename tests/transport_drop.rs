//! Transport-level drop semantics: the `Transport` contract says an
//! omitted reply means "this participant is gone this round" and the
//! engine must complete the round with the remaining participants.
//!
//! These tests pin that behaviour with a wrapper transport that runs
//! everything in-process but censors one client's replies from a given
//! round onward — the same observable behaviour `aergia-net`'s
//! coordinator produces when a worker's connection dies (the e2e suite
//! crosses that bridge with real processes; this suite keeps the
//! contract testable in `cargo test` time).

use aergia::prelude::*;
use aergia::transport::{
    InProcess, OffloadOrder, RoundContext, RoundReplies, TrainOrder, Transport,
};
use aergia_codec::CodecConfig;
use aergia_net::presets::smoke_config;
use aergia_nn::NnError;
use aergia_tensor::Tensor;

/// Runs orders through [`InProcess`] and then omits every reply by (or
/// offloaded to) `client` from round `from_round` onward — the
/// coordinator-eye view of a worker that crashed mid-round and never
/// came back.
struct DropFrom {
    client: usize,
    from_round: u32,
}

impl Transport for DropFrom {
    fn train_round(
        &mut self,
        ctx: &RoundContext<'_>,
        own: Vec<TrainOrder<'_>>,
        offloads: Vec<OffloadOrder>,
    ) -> Result<RoundReplies, NnError> {
        let mut replies = InProcess.train_round(ctx, own, offloads)?;
        if ctx.round >= self.from_round {
            replies.own.retain(|r| r.client != self.client);
            replies.offloads.retain(|r| r.receiver != self.client);
        }
        Ok(replies)
    }
}

/// [`DropFrom`], then also withholds every offloaded section trained for
/// the censored client over the censored rounds, counting them.
struct WithholdSections {
    inner: DropFrom,
    withheld: usize,
}

impl Transport for WithholdSections {
    fn train_round(
        &mut self,
        ctx: &RoundContext<'_>,
        own: Vec<TrainOrder<'_>>,
        offloads: Vec<OffloadOrder>,
    ) -> Result<RoundReplies, NnError> {
        let mut replies = self.inner.train_round(ctx, own, offloads)?;
        if ctx.round >= self.inner.from_round {
            let before = replies.offloads.len();
            replies.offloads.retain(|r| r.weak != self.inner.client);
            self.withheld += before - replies.offloads.len();
        }
        Ok(replies)
    }
}

fn run_with(transport: &mut dyn Transport, strategy: Strategy) -> (RunResult, Vec<Tensor>) {
    let config = smoke_config(33, CodecConfig::DenseF32);
    let mut engine = Engine::new(config, strategy).expect("smoke config is valid");
    let mut progress = engine.start_progress();
    while engine.step_round_with(&mut progress, transport).expect("round") {}
    let result = engine.finish_run(progress);
    let weights = engine.global_weights().to_vec();
    (result, weights)
}

#[test]
fn round_completes_when_a_client_stops_replying() {
    let (result, weights) = run_with(&mut DropFrom { client: 2, from_round: 1 }, Strategy::FedAvg);

    assert_eq!(result.rounds.len(), 3, "the run must finish all rounds");
    assert!(result.rounds[0].dropped.is_empty(), "round 0 is intact");
    for record in &result.rounds[1..] {
        assert!(
            record.dropped.contains(&2),
            "round {}: the silent client must be recorded as dropped",
            record.round
        );
        assert!(record.participants.contains(&2), "selection itself is unaffected");
        assert!(
            record.train_loss.is_finite(),
            "round {}: the remaining participants' losses still aggregate",
            record.round
        );
    }
    assert!(result.final_accuracy.is_finite());
    assert!(!weights.is_empty());

    // The dropped client's update really is excluded: the global model
    // diverges from the intact run's.
    let (intact, intact_weights) = run_with(&mut InProcess, Strategy::FedAvg);
    assert!(intact.rounds.iter().all(|r| r.dropped.is_empty()));
    assert_ne!(
        weights.iter().map(Tensor::data).collect::<Vec<_>>(),
        intact_weights.iter().map(Tensor::data).collect::<Vec<_>>(),
        "censoring a client must change aggregation"
    );
}

#[test]
fn offload_receiver_loss_degrades_gracefully() {
    // Client 3 is the smoke preset's fastest client, so under the Aergia
    // strategy it is the natural offload receiver. Losing it mid-run
    // must cost its contributions, not the run.
    let (result, _) =
        run_with(&mut DropFrom { client: 3, from_round: 1 }, Strategy::aergia_default());
    assert_eq!(result.rounds.len(), 3);
    for record in &result.rounds[1..] {
        assert!(record.dropped.contains(&3));
    }
    assert!(result.final_accuracy.is_finite());
}

#[test]
fn offload_straggler_loss_lapses_its_offload() {
    // Client 0 is the smoke preset's slowest client, so under the Aergia
    // strategy it is the straggler whose frozen model a receiver trains.
    // Losing it must cost its update, not the run, and the section its
    // receiver trained must not be folded anywhere.
    let drop_straggler = || DropFrom { client: 0, from_round: 1 };
    let (result, weights) = run_with(&mut drop_straggler(), Strategy::aergia_default());
    assert_eq!(result.rounds.len(), 3);
    for record in &result.rounds[1..] {
        assert!(record.dropped.contains(&0), "round {}: the straggler is dropped", record.round);
        assert!(
            record.offloads.iter().any(|&(sender, _)| sender == 0),
            "round {}: the plan offloads the straggler's model",
            record.round
        );
        assert!(record.train_loss.is_finite());
    }
    assert!(result.final_accuracy.is_finite());

    // The receiver still trained the section (the in-process transport
    // cannot know the straggler's reply is censored), and folding it or
    // not is indistinguishable: it lapsed.
    let mut withhold = WithholdSections { inner: drop_straggler(), withheld: 0 };
    let (withheld, withheld_weights) = run_with(&mut withhold, Strategy::aergia_default());
    assert_eq!(withhold.withheld, 2, "each censored round trained a section for the straggler");
    assert_eq!(result, withheld);
    for (a, b) in weights.iter().zip(&withheld_weights) {
        let bits = |t: &Tensor| t.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(a), bits(b), "a lapsed section moved the global model");
    }
}
