(* Seeded inputs. Everything a workload feeds the program is derived
   here from the workload seed: the figures and faults workflows are
   generated, written as DAX files and read back through the program's
   DAX loader; the serve workload's request stream is built as NDJSON
   lines. The same seed always gives the same bytes. *)

module Dag = Ckpt_dag.Dag
module Dax = Ckpt_dax.Dax
module Spec = Ckpt_workflows.Spec

(* Where a seed's inputs are written, relative to the checkout root. *)
let dir ~workload ~seed = Printf.sprintf "_perfbench/inputs/%s-%d" workload seed

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    Sys.mkdir path 0o755
  end

(* Generator seed of one (family, size) workflow: distinct per
   workload seed, family and size, so no two inputs of a run share a
   random stream. *)
let workflow_seed ~seed kind tasks =
  let family = match kind with
    | Spec.Genome -> 1 | Spec.Montage -> 2 | Spec.Ligo -> 3 | Spec.Cybershake -> 4
    | Spec.Sipht -> 5
  in
  (seed * 100_003) + (family * 10_007) + tasks

type dax_input = {
  kind : Spec.kind;
  tasks : int;  (* requested size; the generator may land near it *)
  path : string;
  generated : Dag.t;
}

(* The DAX format prints runtimes with 6 decimals and file sizes with 3,
   so a loaded total may differ from the generated one by at most half
   a unit in the last printed place per term. *)
let roundtrip_error ~generated ~loaded =
  let n = Dag.n_tasks generated in
  let terms_data =
    Dag.n_files generated
    + Array.fold_left (fun acc t -> acc + List.length (Dag.inputs generated t)) 0
        (Array.init n Fun.id)
  in
  let dw = Float.abs (Dag.total_weight loaded -. Dag.total_weight generated) in
  let dd = Float.abs (Dag.total_data loaded -. Dag.total_data generated) in
  if Dag.n_tasks loaded <> n then
    Some (Printf.sprintf "DAX round trip: %d tasks loaded, %d generated" (Dag.n_tasks loaded) n)
  else if dw > (float_of_int n *. 5e-7) +. 1e-9 then
    Some (Printf.sprintf "DAX round trip: total weight off by %g" dw)
  else if dd > (float_of_int terms_data *. 5e-4) +. 1e-6 then
    Some (Printf.sprintf "DAX round trip: total data off by %g" dd)
  else None

let write_daxes ~workload ~seed specs =
  let d = dir ~workload ~seed in
  mkdir_p d;
  List.map
    (fun (kind, tasks) ->
      let generated = Spec.generate kind ~seed:(workflow_seed ~seed kind tasks) ~tasks () in
      let path = Filename.concat d (Printf.sprintf "%s-%d.dax" (Spec.name kind) tasks) in
      Dax.save path generated;
      { kind; tasks; path; generated })
    specs

(* Load a written input through the program's loader: the part of
   set-up a user pays. *)
let load input =
  match Dax.of_file input.path with
  | Error e -> failwith (Ckpt_resilience.Error.to_string e)
  | Ok loaded -> loaded

(* The benchmark's own round-trip check of a loaded input, made after
   the timed set-up. *)
let check_roundtrip input loaded =
  match roundtrip_error ~generated:input.generated ~loaded with
  | Some msg -> failwith (input.path ^ ": " ^ msg)
  | None -> ()

(* ---- figures: the Figure 5-7 grid ---- *)

let figure_families = [ Spec.Genome; Spec.Montage; Spec.Ligo ]

(* Paper sizes, each with the second of its four processor counts in
   Section VI (3/5/7/10, 18/35/52/70 and 61/123/184/245). Every point
   uses this one count: a point at the fewest processors costs about
   10% more than at the other three, so rotating through the four
   would split the ops into two clusters of cost. *)
let figure_sizes = [ (50, 5); (300, 35); (1000, 123) ]

let figure_pfails = [| 0.01; 0.001; 0.0001 |]

let logspace lo hi n =
  Array.init n (fun i ->
      let t = float_of_int i /. float_of_int (n - 1) in
      10. ** (log10 lo +. (t *. (log10 hi -. log10 lo))))

(* Each family's CCR grid, as `ckptwf sweep` builds it (default_ccrs
   in bin/ckptwf.ml): 9 points for GENOME, 10 for MONTAGE and LIGO. *)
let figure_ccrs = function
  | Spec.Genome -> logspace 1e-4 1e-2 9
  | _ -> logspace 1e-3 1. 10

let figure_specs =
  List.concat_map (fun kind -> List.map (fun (n, _) -> (kind, n)) figure_sizes) figure_families

(* One figure point: a pfail and a CCR position, applied to all nine
   family x size cells. Position k in 0..9 takes point k * len / 10 of
   a family's grid of len CCRs, so the ten positions cover every point
   of every grid (GENOME's first twice). CCR positions vary fastest,
   then pfail. *)
type point = { pfail : float; ccr_pos : int }

let ccr_positions = 10
let ccr_at ccrs pos = ccrs.(pos * Array.length ccrs / ccr_positions)

let figure_points =
  Array.of_list
    (List.concat_map
       (fun pfail -> List.init ccr_positions (fun ccr_pos -> { pfail; ccr_pos }))
       (Array.to_list figure_pfails))

(* ---- faults: GENOME-300 and LIGO-300 ---- *)

let fault_specs = [ (Spec.Genome, 300); (Spec.Ligo, 300) ]

(* ---- serve: the request stream ---- *)

let serve_families = [| Spec.Genome; Spec.Ligo; Spec.Cybershake; Spec.Sipht |]
let serve_tasks = 300
let serve_processors = 35
let serve_pfail = 0.001

(* A plan key of the daemon: workflow, generator seed and CCR (tasks,
   processors and pfail are fixed). *)
type key = { family : Spec.kind; wf_seed : int; ccr : float; strategy : string }

let key_json ?(extra = []) op k =
  let fields =
    [ ("op", Printf.sprintf "%S" op);
      ("workflow", Printf.sprintf "%S" (Spec.name k.family));
      ("tasks", string_of_int serve_tasks);
      ("seed", string_of_int k.wf_seed);
      ("processors", string_of_int serve_processors);
      ("pfail", Printf.sprintf "%.17g" serve_pfail);
      ("ccr", Printf.sprintf "%.17g" k.ccr) ]
    @ extra
  in
  "{" ^ String.concat "," (List.map (fun (f, v) -> Printf.sprintf "%S:%s" f v) fields) ^ "}"

type stream = {
  hot : key array;  (* every family, CKPTSOME and CKPTALL: always cached *)
  cold : key array;  (* rotated through, one per batch: always a miss *)
  evaluate : key;  (* one analytic evaluate per batch, on a hot setup (strategy unused) *)
  cap : int;  (* the daemon's --cache-cap *)
}

(* The cold keys share one family (LIGO) so that every batch has the
   same make-up; they differ in CCR, so each is a new setup and plan.
   There are more of them than the cache holds, so each has been
   evicted long before it comes round again. *)
let serve_stream ~seed =
  let wf_seed kind = workflow_seed ~seed kind serve_tasks in
  let rng = Random.State.make [| seed; 0x5e7e |] in
  let hot_ccr = 10. ** (-3. +. Random.State.float rng 1.) in
  let hot =
    Array.of_list
      (List.concat_map
         (fun family ->
           List.map
             (fun strategy -> { family; wf_seed = wf_seed family; ccr = hot_ccr; strategy })
             [ "some"; "all" ])
         (Array.to_list serve_families))
  in
  let cap = Array.length hot + 2 in
  let cold_ccrs = logspace 2e-3 0.2 (2 * cap) in
  let shift = Random.State.int rng (Array.length cold_ccrs) in
  let cold =
    Array.init (Array.length cold_ccrs) (fun i ->
        {
          family = Spec.Ligo;
          wf_seed = wf_seed Spec.Ligo;
          ccr = cold_ccrs.((i + shift) mod Array.length cold_ccrs);
          strategy = "some";
        })
  in
  { hot; cold; evaluate = hot.(0); cap }

let plan_line k = key_json ~extra:[ ("strategy", Printf.sprintf "%S" k.strategy) ] "plan" k
let evaluate_line k = key_json ~extra:[ ("eval", "\"analytic\"") ] "evaluate" k

(* Batch [i]: the hot plans, one cold plan, one evaluate. *)
let batch stream i =
  Array.to_list (Array.map plan_line stream.hot)
  @ [ plan_line stream.cold.(i mod Array.length stream.cold); evaluate_line stream.evaluate ]

(* The warm-up batch fills the hot set and nothing else. *)
let warmup stream = Array.to_list (Array.map plan_line stream.hot)

let write_serve_stream ~seed stream =
  let d = dir ~workload:"serve" ~seed in
  mkdir_p d;
  let oc = open_out (Filename.concat d "batches.ndjson") in
  for i = 0 to Array.length stream.cold - 1 do
    List.iter (fun l -> output_string oc (l ^ "\n")) (batch stream i);
    output_string oc "\n"
  done;
  close_out oc
