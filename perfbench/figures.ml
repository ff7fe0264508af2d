(* The figures workload: the Figure 5-7 grid, one figure point per op.
   A point is the nine family x size cells at one pfail and CCR; each
   cell makes the calls `ckptwf sweep` makes for it (Pipeline.prepare,
   then Pipeline.compare_strategies with PATHAPPROX). *)

module Dag = Ckpt_dag.Dag
module Spec = Ckpt_workflows.Spec
module Platform = Ckpt_platform.Platform
module Mspg = Ckpt_mspg.Mspg
module Recognize = Ckpt_mspg.Recognize
module Allocate = Ckpt_core.Allocate
module Schedule = Ckpt_core.Schedule
module Superchain = Ckpt_core.Superchain
module Strategy = Ckpt_core.Strategy
module Pipeline = Ckpt_core.Pipeline
module Evaluator = Ckpt_eval.Evaluator

let method_ = Evaluator.Pathapprox

type input = {
  file : Inputs.dax_input;
  procs : int;  (* the paper's processor count used for this size *)
  ccrs : float array;
}

type cell = {
  kind : Spec.kind;
  dag : Dag.t;
  procs : int;
  ccrs : float array;
  critical_path : float;
  total_work : float;
  mean_weight : float;
}

type t = { cells : cell array }
type inputs = input array
type loaded = Dag.t array

let inputs ~seed =
  let files = Inputs.write_daxes ~workload:"figures" ~seed Inputs.figure_specs in
  Array.of_list
    (List.map
       (fun (file : Inputs.dax_input) ->
         { file; procs = List.assoc file.Inputs.tasks Inputs.figure_sizes;
           ccrs = Inputs.figure_ccrs file.Inputs.kind })
       files)

(* A set-up takes about 60 ms here. *)
let setup_reps = 31

(* Set-up: what a user pays before the first point, loading the nine
   workflows. *)
let setup ?trace inputs =
  let load (i : input) =
    match trace with
    | Some tr -> Trace.span tr "dax.load" (fun () -> Inputs.load i.file)
    | None -> Inputs.load i.file
  in
  Array.map load inputs

(* The benchmark's own round-trip checks and reference values, made
   after the timed set-up. *)
let reference ~seed:_ inputs dags =
  let cells =
    Array.mapi
      (fun k (i : input) ->
        let dag = dags.(k) in
        Inputs.check_roundtrip i.file dag;
        let total_work = Checks.total_work dag in
        {
          kind = i.file.Inputs.kind;
          dag;
          procs = i.procs;
          ccrs = i.ccrs;
          critical_path = Checks.longest_path ~weight:(Dag.weight dag) (Checks.raw_succs dag);
          total_work;
          mean_weight = total_work /. float_of_int (Dag.n_tasks dag);
        })
      inputs
  in
  { cells }

type cell_out = {
  schedule : Schedule.t;
  dummy_edges : int;
  pfail : float;
  ccr : float;
  cmp : Pipeline.comparison;
}

type out = cell_out array

let point i = Inputs.figure_points.(i mod Array.length Inputs.figure_points)

let params c (p : Inputs.point) =
  (c.procs, p.Inputs.pfail, Inputs.ccr_at c.ccrs p.Inputs.ccr_pos)

(* Untraced op: exactly the sweep's per-cell calls. *)
let op t i =
  let p = point i in
  Array.map
    (fun c ->
      let processors, pfail, ccr = params c p in
      let setup = Pipeline.prepare ~dag:c.dag ~processors ~pfail ~ccr () in
      {
        schedule = setup.Pipeline.schedule;
        dummy_edges = setup.Pipeline.dummy_edges;
        pfail;
        ccr;
        cmp = Pipeline.compare_strategies ~method_ setup;
      })
    t.cells

(* Traced op: the pieces of Pipeline.prepare and compare_strategies,
   called one by one inside spans. The platform is built as
   Pipeline.prepare builds it. *)
let traced_op tr t i =
  let p = point i in
  Array.map
    (fun c ->
      let processors, pfail, ccr = params c p in
      let dag = c.dag in
      let platform =
        let mean_weight = Dag.total_weight dag /. float_of_int (Dag.n_tasks dag) in
        let lambda = Platform.lambda_of_pfail ~pfail ~mean_weight in
        let bandwidth =
          Platform.bandwidth_for_ccr ~ccr ~total_data:(Dag.total_data dag)
            ~total_weight:(Dag.total_weight dag)
        in
        Platform.make ~processors ~lambda ~bandwidth
      in
      let mspg, dummy_edges =
        Trace.span tr "mspg.recognize" (fun () ->
            match Recognize.of_dag_completed dag with
            | Ok (m, 0) -> ({ Mspg.dag; tree = m.Mspg.tree }, 0)
            | Ok (m, d) -> (m, d)
            | Error e -> failwith ("not an M-SPG: " ^ e))
      in
      let schedule = Trace.span tr "core.allocate" (fun () -> Allocate.run mspg ~processors) in
      let plan kind =
        Trace.span tr "core.plan" (fun () -> Strategy.plan kind ~raw:dag ~schedule ~platform)
      in
      let some = plan Strategy.Ckpt_some in
      let all = plan Strategy.Ckpt_all in
      let none = plan Strategy.Ckpt_none in
      let em pl =
        Trace.span tr "eval.estimate" (fun () -> Strategy.expected_makespan ~method_ pl)
      in
      let em_some = em some in
      let em_all = em all in
      let em_none = em none in
      {
        schedule;
        dummy_edges;
        pfail;
        ccr;
        cmp =
          {
            Pipeline.em_some;
            em_all;
            em_none;
            rel_all = em_all /. em_some;
            rel_none = em_none /. em_some;
            ckpts_some = some.Strategy.checkpoint_count;
            ckpts_all = all.Strategy.checkpoint_count;
          };
      })
    t.cells

let cell_ref c o =
  let schedule = o.schedule in
  let superchains = schedule.Schedule.superchains in
  let chains = Array.map (fun (sc : Superchain.t) -> sc.Superchain.order) superchains in
  let used = Hashtbl.create 64 in
  Array.iter (fun (sc : Superchain.t) -> Hashtbl.replace used sc.Superchain.processor ()) superchains;
  let lambda = Checks.lambda_of_pfail ~pfail:o.pfail ~mean_weight:c.mean_weight in
  let bandwidth = Dag.total_data c.dag /. (o.ccr *. c.total_work) in
  {
    Checks.n = Dag.n_tasks c.dag;
    superchains = Array.length chains;
    lower_bound =
      Checks.makespan_lower_bound ~critical_path:c.critical_path ~total_work:c.total_work
        ~processors:schedule.Schedule.processors;
    wpar = Checks.parallel_time c.dag ~chains ~bandwidth;
    rate = lambda *. float_of_int (Hashtbl.length used);
  }

let check t _i outs =
  Array.to_list outs
  |> List.mapi (fun k o -> (t.cells.(k), o))
  |> List.fold_left
       (fun acc (c, o) ->
         match acc with
         | Error _ -> acc
         | Ok () ->
             let cmp = o.cmp in
             Checks.figure_cell (cell_ref c o)
               {
                 Checks.em_some = cmp.Pipeline.em_some;
                 em_all = cmp.Pipeline.em_all;
                 em_none = cmp.Pipeline.em_none;
                 ckpts_some = cmp.Pipeline.ckpts_some;
                 ckpts_all = cmp.Pipeline.ckpts_all;
               }
             |> Result.map_error (fun e ->
                    Printf.sprintf "%s-%d p=%d pfail=%g ccr=%g: %s" (Spec.name c.kind)
                      (Dag.n_tasks c.dag) o.schedule.Schedule.processors o.pfail o.ccr e))
       (Ok ())

(* The traced path must reproduce the untraced outputs bit for bit. *)
let same a b =
  let bits x = Int64.bits_of_float x in
  Array.for_all2
    (fun x y ->
      let x = x.cmp and y = y.cmp in
      bits x.Pipeline.em_some = bits y.Pipeline.em_some
      && bits x.Pipeline.em_all = bits y.Pipeline.em_all
      && bits x.Pipeline.em_none = bits y.Pipeline.em_none
      && x.Pipeline.ckpts_some = y.Pipeline.ckpts_some
      && x.Pipeline.ckpts_all = y.Pipeline.ckpts_all)
    a b

let layers ~setup ~ops tr =
  let per_op name = Trace.ms tr name /. float_of_int ops in
  [ ("dax.load_ms", Trace.ms setup "dax.load");
    ("mspg.recognize_ms", per_op "mspg.recognize");
    ("core.allocate_ms", per_op "core.allocate");
    ("core.plan_ms", per_op "core.plan");
    ("eval.estimate_ms", per_op "eval.estimate") ]

(* Exact counts of the run's first op. *)
let counts outs =
  let sum f = Array.fold_left (fun acc o -> acc + f o) 0 outs in
  [ ("mspg.dummy_edges", sum (fun o -> o.dummy_edges));
    ("core.checkpoints", sum (fun o -> o.cmp.Pipeline.ckpts_some)) ]
