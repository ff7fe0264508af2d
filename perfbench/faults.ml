(* The faults workload: the failure-injected Monte-Carlo behind
   `ckptwf degrade`, `cloud` and `storm`, on CKPTSOME plans of
   GENOME-300 and LIGO-300 prepared during set-up. One op runs, for
   each plan, one degrade cell (paired Repair and Restart trials), one
   cloud cell (Checkpoint trials against the replicate-the-workflow
   baseline) and one storage cell (Runner.sample_storage with commit
   failures and latent corruption). Every op draws its own trial seed
   and prepares its replan caches afresh, as the CLI does per cell, so
   no op inherits work from an earlier one. *)

module Dag = Ckpt_dag.Dag
module Platform = Ckpt_platform.Platform
module Schedule = Ckpt_core.Schedule
module Superchain = Ckpt_core.Superchain
module Strategy = Ckpt_core.Strategy
module Pipeline = Ckpt_core.Pipeline
module Degrade = Ckpt_sim.Degrade
module Cloud = Ckpt_sim.Cloud
module Runner = Ckpt_sim.Runner
module Store = Ckpt_storage.Store
module Storage = Ckpt_storage.Storage

let processors = 35
let pfail = 0.001
let ccr = 0.01
let kind = Strategy.Ckpt_some

(* per cell: probabilities over the plan's failure-free parallel
   time, the loss bound, and trial counts *)
let pdeath = 0.2
let max_losses = 1
let degrade_trials = 12
let prevoke = 0.2
let grace = 10.
let max_revocations = 1
let cloud_trials = 12
let storage_trials = 192
let commit_fail_prob = 0.05
let corrupt_prob = 0.05

type plan = { name : string; plan : Strategy.plan; wpar : float (* the benchmark's own *) }
type t = { plans : plan array; seed : int }
type inputs = Inputs.dax_input list
type loaded = (Dag.t * Strategy.plan) list

let inputs ~seed = Inputs.write_daxes ~workload:"faults" ~seed Inputs.fault_specs

(* A set-up takes about 10 ms here, and its median needs more samples
   than the figures one to settle. *)
let setup_reps = 101

(* Set-up: loading both workflows and planning them. *)
let setup ?trace inputs =
  let span name f = match trace with Some tr -> Trace.span tr name f | None -> f () in
  List.map
    (fun (input : Inputs.dax_input) ->
      let dag = span "dax.load" (fun () -> Inputs.load input) in
      (dag, Pipeline.plan (Pipeline.prepare ~dag ~processors ~pfail ~ccr ()) kind))
    inputs

(* The benchmark's own round-trip checks and reference W_par, made
   after the timed set-up. *)
let reference ~seed inputs loaded =
  let plans =
    List.map2
      (fun input (dag, plan) ->
        Inputs.check_roundtrip input dag;
        let schedule = plan.Strategy.schedule in
        let chains =
          Array.map (fun (sc : Superchain.t) -> sc.Superchain.order) schedule.Schedule.superchains
        in
        {
          name = Dag.name dag;
          plan;
          wpar =
            Checks.parallel_time dag ~chains ~bandwidth:plan.Strategy.platform.Platform.bandwidth;
        })
      inputs loaded
  in
  { plans = Array.of_list plans; seed }

type cells = {
  repair : Degrade.trial array;
  restart : Degrade.trial array;
  checkpoint : Cloud.trial array;
  replicate : Cloud.trial array;
  storage : Runner.storage_trial array;
  replan_hits : int;
  replan_misses : int;
}

type out = cells array

let trial_seed t i = (t.seed * 1_000_003) + i

let store =
  { Store.default with
    Store.faults = { Storage.default with Storage.commit_fail_prob; corrupt_prob } }

let run_cells ?trace t i p =
  let span name f = match trace with Some tr -> Trace.span tr name f | None -> f () in
  let seed = trial_seed t i in
  let plan = p.plan in
  let rate pr = Platform.lambda_of_pfail ~pfail:pr ~mean_weight:plan.Strategy.wpar in
  let dprep, cprep =
    span "recovery.prepare" (fun () -> (Degrade.prepare plan, Cloud.prepare plan))
  in
  let dconfig =
    { Degrade.lambda_death = rate pdeath; max_losses; kind; store = Store.default }
  in
  let degrade name mode =
    span name (fun () ->
        Degrade.sample_prepared ~trials:degrade_trials ~seed ~mode dconfig dprep)
  in
  let repair = degrade "sim.degrade_repair" Degrade.Repair in
  let restart = degrade "sim.degrade_restart" Degrade.Restart in
  let cconfig =
    { Cloud.lambda_revoke = rate prevoke; grace; max_revocations; kind; store = Store.default }
  in
  let cloud name mode =
    span name (fun () -> Cloud.sample_prepared ~trials:cloud_trials ~seed ~mode cconfig cprep)
  in
  let checkpoint = cloud "sim.cloud_checkpoint" Cloud.Checkpoint in
  let replicate = cloud "sim.cloud_replicate" Cloud.Replicate in
  let storage =
    span "sim.storage" (fun () -> Runner.sample_storage ~trials:storage_trials ~seed ~store plan)
  in
  let dh, dm = Degrade.cache_stats dprep and ch, cm = Cloud.cache_stats cprep in
  { repair; restart; checkpoint; replicate; storage; replan_hits = dh + ch;
    replan_misses = dm + cm }

let op t i = Array.map (run_cells t i) t.plans
let traced_op tr t i = Array.map (run_cells ~trace:tr t i) t.plans

let ( let* ) = Result.bind

let all_ok f arr =
  Array.fold_left (fun acc x -> match acc with Error _ -> acc | Ok () -> f x) (Ok ()) arr

let check_cells p c =
  let wpar = p.wpar in
  let segments = Array.length p.plan.Strategy.segments in
  let degrade (tr : Degrade.trial) =
    let* () = Checks.makespan ~wpar tr.Degrade.makespan in
    Checks.losses ~bound:max_losses ~losses:tr.Degrade.losses ~replans:tr.Degrade.replans
      ~restarts:tr.Degrade.restarts
  in
  let cloud (tr : Cloud.trial) =
    let* () = Checks.makespan ~wpar tr.Cloud.makespan in
    Checks.losses ~bound:max_revocations ~losses:tr.Cloud.revocations ~replans:tr.Cloud.replans
      ~restarts:tr.Cloud.restarts
  in
  let replicate (tr : Cloud.trial) = Checks.makespan ~wpar tr.Cloud.makespan in
  let storage (tr : Runner.storage_trial) =
    let* () = Checks.makespan ~wpar tr.Runner.makespan in
    Checks.storage ~segments ~rollbacks:tr.Runner.rollbacks
      ~corrupt_reads:tr.Runner.corrupt_reads ~commits:tr.Runner.store.Store.commits
  in
  let* () = all_ok degrade c.repair in
  let* () = all_ok degrade c.restart in
  let* () = all_ok cloud c.checkpoint in
  let* () = all_ok replicate c.replicate in
  all_ok storage c.storage

let check t _i outs =
  let r = ref (Ok ()) in
  Array.iteri
    (fun k c ->
      if !r = Ok () then
        r := Result.map_error (fun e -> t.plans.(k).name ^ ": " ^ e) (check_cells t.plans.(k) c))
    outs;
  !r

(* Counts of one op, for the traced run's exact per-layer counters. *)
let counts outs =
  let sum f arr = Array.fold_left (fun acc x -> acc + f x) 0 arr in
  let over f = Array.fold_left (fun acc c -> acc + f c) 0 outs in
  [ ("recovery.replans",
     over (fun c ->
         sum (fun (x : Degrade.trial) -> x.Degrade.replans) c.repair
         + sum (fun (x : Degrade.trial) -> x.Degrade.replans) c.restart
         + sum (fun (x : Cloud.trial) -> x.Cloud.replans) c.checkpoint));
    ("recovery.restarts",
     over (fun c ->
         sum (fun (x : Degrade.trial) -> x.Degrade.restarts) c.repair
         + sum (fun (x : Degrade.trial) -> x.Degrade.restarts) c.restart
         + sum (fun (x : Cloud.trial) -> x.Cloud.restarts) c.checkpoint));
    ("recovery.replan_cache_hits", over (fun c -> c.replan_hits));
    ("recovery.replan_cache_misses", over (fun c -> c.replan_misses));
    ("cloud.rescues",
     over (fun c -> sum (fun (x : Cloud.trial) -> x.Cloud.rescues) c.checkpoint));
    ("storage.commits",
     over (fun c -> sum (fun (x : Runner.storage_trial) -> x.Runner.store.Store.commits) c.storage));
    ("storage.commit_retries",
     over (fun c -> sum (fun (x : Runner.storage_trial) -> x.Runner.commit_retries) c.storage));
    ("storage.corrupt_reads",
     over (fun c -> sum (fun (x : Runner.storage_trial) -> x.Runner.corrupt_reads) c.storage));
    ("storage.rollbacks",
     over (fun c -> sum (fun (x : Runner.storage_trial) -> x.Runner.rollbacks) c.storage)) ]

(* Traced and untraced ops must agree exactly. *)
let same a b =
  let bits x = Int64.bits_of_float x in
  let ms f x y = Array.for_all2 (fun u v -> bits (f u) = bits (f v)) x y in
  Array.for_all2
    (fun x y ->
      ms (fun (t : Degrade.trial) -> t.Degrade.makespan) x.repair y.repair
      && ms (fun (t : Degrade.trial) -> t.Degrade.makespan) x.restart y.restart
      && ms (fun (t : Cloud.trial) -> t.Cloud.makespan) x.checkpoint y.checkpoint
      && ms (fun (t : Cloud.trial) -> t.Cloud.makespan) x.replicate y.replicate
      && ms (fun (t : Runner.storage_trial) -> t.Runner.makespan) x.storage y.storage)
    a b
  && counts a = counts b

let layers ~setup ~ops tr =
  let per_trial name trials =
    Trace.ms tr name /. float_of_int (ops * trials * List.length Inputs.fault_specs)
  in
  [ ("dax.load_ms", Trace.ms setup "dax.load");
    ("recovery.prepare_ms", Trace.ms tr "recovery.prepare" /. float_of_int ops);
    ("sim.degrade_repair_ms_per_trial", per_trial "sim.degrade_repair" degrade_trials);
    ("sim.degrade_restart_ms_per_trial", per_trial "sim.degrade_restart" degrade_trials);
    ("sim.cloud_checkpoint_ms_per_trial", per_trial "sim.cloud_checkpoint" cloud_trials);
    ("sim.cloud_replicate_ms_per_trial", per_trial "sim.cloud_replicate" cloud_trials);
    ("sim.storage_ms_per_trial", per_trial "sim.storage" storage_trials) ]
