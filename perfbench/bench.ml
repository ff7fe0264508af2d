(* ckptwf benchmark: one workload per process.

   bench.exe --workload (figures|faults|serve) --seed N --seconds S --trace (0|1)

   Runs one workload in this process (serve: against a daemon this
   process starts and stops), checks every op's outputs, and prints as
   its last line one JSON object: correct, attempted, failed and the
   metrics, end-to-end ones with --trace 0 and per-layer ones with
   --trace 1. Normally started through run.py, which builds it first. *)

open Perfbench

(* Set-ups per serve run; setup_s is their median. *)
let serve_setup_reps = 31

type args = { workload : string; seed : int; seconds : float; trace : bool; ckptwf : string }

let usage () =
  prerr_endline
    "usage: bench.exe --workload (figures|faults|serve) --seed N --seconds S --trace (0|1) \
     [--ckptwf PATH]";
  exit 2

let parse_args () =
  let a = ref { workload = ""; seed = 1; seconds = 10.; trace = false; ckptwf = "" } in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest -> a := { !a with workload = v }; go rest
    | "--seed" :: v :: rest -> (
        match int_of_string_opt v with
        | Some s -> a := { !a with seed = s }; go rest
        | None -> usage ())
    | "--seconds" :: v :: rest -> (
        match float_of_string_opt v with
        | Some s when s > 0. -> a := { !a with seconds = s }; go rest
        | _ -> usage ())
    | "--trace" :: ("0" | "1" as v) :: rest -> a := { !a with trace = v = "1" }; go rest
    | "--ckptwf" :: v :: rest -> a := { !a with ckptwf = v }; go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  if not (List.mem !a.workload [ "figures"; "faults"; "serve" ]) then usage ();
  !a

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

let print_result ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun x -> Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" x.name x.value x.unit_)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " fields)

(* The end-to-end metrics of a run, from its op latencies. The tail
   percentile is the 80th: the highest that keeps ten ops beyond it in
   a figures run, whose points take about 0.45 s each. There is no
   median: this host runs whole stretches of a minute or more in a fast
   or a slow mode, and a run's median lands wholly in the mode most of
   its ops saw, so it jumps between runs where the mean (ops_per_s) and
   p80 move less. *)
let end_to_end ~latencies ~phase_s ~setup_s ~peak_rss_mb =
  let n = Array.length latencies in
  if Quant.beyond 0.8 n < 10 then
    Printf.eprintf "bench: only %d ops beyond p80 (want at least 10)\n%!" (Quant.beyond 0.8 n);
  [ m "ops_per_s" "1/s" (float_of_int n /. phase_s);
    m "op_ms_p80" "ms" (Quant.percentile 0.8 latencies);
    m "setup_s" "s" (Quant.median setup_s);
    m "peak_rss_mb" "MB" peak_rss_mb ]

(* Shared loop of the in-process workloads: ops until [seconds] of op
   time have passed. Checks run between ops, outside the timed phase,
   and so does [between], which is given the op time passed so far. *)
let in_process ?(between = ignore) ~seconds ~op ~check () =
  let lat = ref [] and phase = ref 0. and i = ref 0 and failed = ref 0 and wrong = ref 0 in
  while !phase < seconds do
    between !phase;
    (match Quant.time_ms (fun () -> op !i) with
    | out, ms -> (
        lat := ms :: !lat;
        phase := !phase +. (ms /. 1000.);
        match check !i out with
        | Ok () -> ()
        | Error e ->
            incr failed;
            incr wrong;
            Printf.eprintf "bench: op %d: %s\n%!" !i e)
    | exception e ->
        incr failed;
        phase := !phase +. 0.001;
        Printf.eprintf "bench: op %d raised %s\n%!" !i (Printexc.to_string e));
    incr i
  done;
  (Array.of_list (List.rev !lat), !phase, !i, !failed, !wrong)

(* Every per-layer metric of the benchmark, with its unit. A traced
   run prints all of them; a layer its workload never calls reads 0. *)
let per_layer =
  [ ("dax.load_ms", "ms"); ("mspg.recognize_ms", "ms"); ("mspg.dummy_edges", "count");
    ("core.allocate_ms", "ms"); ("core.plan_ms", "ms"); ("eval.estimate_ms", "ms");
    ("core.checkpoints", "count");
    ("recovery.prepare_ms", "ms"); ("sim.degrade_repair_ms_per_trial", "ms");
    ("sim.degrade_restart_ms_per_trial", "ms"); ("sim.cloud_checkpoint_ms_per_trial", "ms");
    ("sim.cloud_replicate_ms_per_trial", "ms"); ("sim.storage_ms_per_trial", "ms");
    ("recovery.replans", "count"); ("recovery.restarts", "count");
    ("recovery.replan_cache_hits", "count"); ("recovery.replan_cache_misses", "count");
    ("cloud.rescues", "count"); ("storage.commits", "count"); ("storage.commit_retries", "count");
    ("storage.corrupt_reads", "count"); ("storage.rollbacks", "count");
    ("serve.batch_rtt_ms", "ms"); ("serve.daemon_ms", "ms"); ("serve.overhead_ms", "ms");
    ("serve.plan_hit_ms", "ms"); ("serve.plan_miss_ms", "ms"); ("serve.evaluate_ms", "ms");
    ("service.plan_hits", "count"); ("service.plan_misses", "count");
    ("service.plan_evictions", "count"); ("service.setup_hits", "count");
    ("service.setup_misses", "count"); ("serve.stats_rtt_ms", "ms");
    ("trace.gap_ms", "ms"); ("trace.overhead_ops_per_s", "1/s") ]

let layer_metrics measured =
  List.map
    (fun (name, unit_) ->
      m name unit_ (Option.value ~default:0. (List.assoc_opt name measured)))
    per_layer

module type IN_PROCESS = sig
  type inputs
  type loaded
  type t
  type out

  val inputs : seed:int -> inputs

  (* the timed set-up: what a user pays before the first op *)
  val setup : ?trace:Trace.t -> inputs -> loaded

  (* the benchmark's own round-trip checks and reference values,
     outside the timed set-up *)
  val reference : seed:int -> inputs -> loaded -> t
  val op : t -> int -> out
  val traced_op : Trace.t -> t -> int -> out
  val check : t -> int -> out -> (unit, string) result
  val same : out -> out -> bool
  val counts : out -> (string * int) list
  val layers : setup:Trace.t -> ops:int -> Trace.t -> (string * float) list

  (* set-ups per run; setup_s is their median *)
  val setup_reps : int
end

let run_in_process (module W : IN_PROCESS) a =
  let inputs = W.inputs ~seed:a.seed in
  if not a.trace then begin
    (* The set-ups are spread over the run: one before the first op,
       then one each time another [seconds / W.setup_reps] of op time has
       passed, so that setup_s sees the host as the ops see it. Each
       starts from a fully collected heap, so that none pays for
       collecting an earlier one's garbage. *)
    let setup_s = Array.make W.setup_reps 0. and reps = ref 0 in
    let timed_setup () =
      Gc.full_major ();
      let loaded, ms = Quant.time_ms (fun () -> W.setup inputs) in
      setup_s.(!reps) <- ms /. 1000.;
      incr reps;
      loaded
    in
    let t = W.reference ~seed:a.seed inputs (timed_setup ()) in
    let between phase =
      if !reps < W.setup_reps
         && phase >= float_of_int !reps *. a.seconds /. float_of_int W.setup_reps
      then ignore (timed_setup ())
    in
    let latencies, phase_s, attempted, failed, wrong =
      in_process ~between ~seconds:a.seconds ~op:(W.op t) ~check:(W.check t) ()
    in
    while !reps < W.setup_reps do
      ignore (timed_setup ())
    done;
    print_result ~correct:(wrong = 0) ~attempted ~failed
      (end_to_end ~latencies ~phase_s ~setup_s ~peak_rss_mb:(Quant.self_vmhwm_mb ()))
  end
  else begin
    (* traced run: each op runs both traced and untraced, and the two
       must agree exactly; the untraced times give the gap and the
       overhead *)
    let setup_tr = Trace.create () in
    let t = W.reference ~seed:a.seed inputs (W.setup ~trace:setup_tr inputs) in
    let tr = Trace.create () in
    let traced = ref [] and untraced = ref [] and first = ref [] in
    let op i =
      let traced_run () =
        let out, ms = Quant.time_ms (fun () -> W.traced_op tr t i) in
        traced := ms :: !traced;
        out
      and plain_run () =
        let out, ms = Quant.time_ms (fun () -> W.op t i) in
        untraced := ms :: !untraced;
        out
      in
      (* alternate which goes first, so neither side always runs warm *)
      let out, plain =
        if i mod 2 = 0 then
          let out = traced_run () in
          (out, plain_run ())
        else
          let plain = plain_run () in
          (traced_run (), plain)
      in
      if i = 0 then first := W.counts out;
      (out, plain)
    in
    let check i (out, plain) =
      if W.same out plain then W.check t i out else Error "traced and untraced outputs differ"
    in
    let _, _, attempted, failed, wrong = in_process ~seconds:a.seconds ~op ~check () in
    let traced = Array.of_list !traced and untraced = Array.of_list !untraced in
    let ops = Array.length traced in
    let measured =
      W.layers ~setup:setup_tr ~ops tr
      @ List.map (fun (k, v) -> (k, float_of_int v)) !first
      @ [ ("trace.gap_ms", Quant.mean untraced -. (Trace.total_ms tr /. float_of_int ops));
          ( "trace.overhead_ops_per_s",
            (1000. /. Quant.mean untraced) -. (1000. /. Quant.mean traced) ) ]
    in
    print_result ~correct:(wrong = 0) ~attempted ~failed (layer_metrics measured)
  end

let run_serve a =
  let stream = Inputs.serve_stream ~seed:a.seed in
  Inputs.write_serve_stream ~seed:a.seed stream;
  let expected = Serve.expected stream in
  let r = Serve.run ~ckptwf:a.ckptwf ~seconds:a.seconds ~setup_reps:serve_setup_reps stream in
  let failed = ref 0 in
  Array.iter
    (fun b ->
      match Serve.check_batch expected b with
      | Ok () -> ()
      | Error e -> incr failed; Printf.eprintf "bench: %s\n%!" e)
    r.Serve.batches;
  let accounting = Serve.check_accounting r in
  Result.iter_error (Printf.eprintf "bench: %s\n%!") accounting;
  let correct = !failed = 0 && accounting = Ok () in
  let attempted = Array.length r.Serve.batches in
  if not a.trace then
    print_result ~correct ~attempted ~failed:!failed
      (end_to_end
         ~latencies:(Array.map (fun b -> b.Serve.rtt_ms) r.Serve.batches)
         ~phase_s:r.Serve.phase_s ~setup_s:r.Serve.setup_s ~peak_rss_mb:r.Serve.peak_rss_mb)
  else print_result ~correct ~attempted ~failed:!failed (layer_metrics (Serve.layers r))

let () =
  let a = parse_args () in
  match a.workload with
  | "figures" -> run_in_process (module Figures) a
  | "faults" -> run_in_process (module Faults) a
  | _ -> run_serve a
