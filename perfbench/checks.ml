(* Output checks. Each compares a program output with a value the
   benchmark computes by its own code, or with a property the method
   must have. Nothing here compares against a stored copy of earlier
   output. A check returns [Error reason] on the first violation. *)

module Dag = Ckpt_dag.Dag

let fail fmt = Printf.ksprintf (fun s -> Error s) fmt
let ( let* ) = Result.bind

(* Agreement up to the rounding of a different summation order. *)
let close ?(rel = 1e-9) a b = Float.abs (a -. b) <= rel *. Float.max (Float.abs a) (Float.abs b)

(* ---- independent computations on the input workflow ---- *)

(* Longest node-weighted path of a DAG given as successor lists, by
   Kahn's algorithm. *)
let longest_path ~weight (succs : int list array) =
  let n = Array.length succs in
  let indeg = Array.make n 0 in
  Array.iter (List.iter (fun v -> indeg.(v) <- indeg.(v) + 1)) succs;
  let finish = Array.make n 0. and start = Array.make n 0. in
  let ready = Queue.create () in
  Array.iteri (fun v d -> if d = 0 then Queue.add v ready) indeg;
  let seen = ref 0 and best = ref 0. in
  while not (Queue.is_empty ready) do
    let u = Queue.pop ready in
    incr seen;
    finish.(u) <- start.(u) +. weight u;
    if finish.(u) > !best then best := finish.(u);
    List.iter
      (fun v ->
        if finish.(u) > start.(v) then start.(v) <- finish.(u);
        indeg.(v) <- indeg.(v) - 1;
        if indeg.(v) = 0 then Queue.add v ready)
      succs.(u)
  done;
  if !seen <> n then invalid_arg "Checks.longest_path: cycle";
  !best

let raw_succs dag = Array.init (Dag.n_tasks dag) (Dag.succ_ids dag)

let total_work dag =
  let acc = ref 0. in
  for t = 0 to Dag.n_tasks dag - 1 do
    acc := !acc +. Dag.weight dag t
  done;
  !acc

(* Lower bound on any makespan of [dag] on [processors] processors:
   the critical path, and the total work spread evenly. *)
let makespan_lower_bound ~critical_path ~total_work ~processors =
  Float.max critical_path (total_work /. float_of_int processors)

(* Failure rate per processor for a failure probability [pfail] per
   task of mean weight [mean_weight]: pfail = 1 - exp (-lambda w). *)
let lambda_of_pfail ~pfail ~mean_weight = -.Float.log1p (-.pfail) /. mean_weight

(* Failure-free parallel time of a schedule without checkpoints: each
   task costs its weight plus the reads of its initial input files;
   edges are the workflow's dependencies plus the order of tasks
   within each superchain. *)
let parallel_time dag ~(chains : int array array) ~bandwidth =
  let succs = raw_succs dag in
  Array.iter
    (fun order ->
      for k = 0 to Array.length order - 2 do
        succs.(order.(k)) <- order.(k + 1) :: succs.(order.(k))
      done)
    chains;
  let weight t =
    List.fold_left (fun acc size -> acc +. (size /. bandwidth)) (Dag.weight dag t)
      (Dag.inputs dag t)
  in
  longest_path ~weight succs

(* Theorem 1 of the paper: with no checkpoint, a failure (probability
   rate * wpar in the first-order model) costs on average half the
   run, so EM = wpar (1 + rate wpar / 2). *)
let theorem1 ~wpar ~rate = wpar *. (1. +. (0.5 *. rate *. wpar))

(* ---- figures: one family x size cell ---- *)

type figure_ref = {
  n : int;
  superchains : int;
  lower_bound : float;  (* makespan_lower_bound *)
  wpar : float;  (* parallel_time of the cell's schedule *)
  rate : float;  (* lambda times the number of processors used *)
}

type figure_out = {
  em_some : float;
  em_all : float;
  em_none : float;
  ckpts_some : int;
  ckpts_all : int;
}

let figure_cell r o =
  let em_ok name em =
    if Float.is_finite em && em >= r.lower_bound then Ok ()
    else fail "EM(%s) = %.17g below the lower bound %.17g" name em r.lower_bound
  in
  let* () = em_ok "CKPTSOME" o.em_some in
  let* () = em_ok "CKPTALL" o.em_all in
  let* () = em_ok "CKPTNONE" o.em_none in
  let closed = theorem1 ~wpar:r.wpar ~rate:r.rate in
  let* () =
    if close o.em_none closed then Ok ()
    else fail "EM(CKPTNONE) = %.17g, Theorem 1 gives %.17g" o.em_none closed
  in
  let* () =
    if o.ckpts_all = r.n then Ok ()
    else fail "CKPTALL has %d checkpoints for %d tasks" o.ckpts_all r.n
  in
  if r.superchains <= o.ckpts_some && o.ckpts_some <= r.n then Ok ()
  else fail "CKPTSOME has %d checkpoints, outside [%d superchains, %d tasks]" o.ckpts_some
      r.superchains r.n

(* ---- faults: one Monte-Carlo trial ---- *)

let makespan ~wpar m =
  if not (Float.is_finite m) then fail "makespan %g is not finite" m
  else if m < wpar *. (1. -. 1e-12) then fail "makespan %.17g below W_par %.17g" m wpar
  else Ok ()

(* Every loss either replans the residual workflow or restarts it. *)
let losses ~bound ~losses ~replans ~restarts =
  if losses > bound then fail "%d losses exceed the bound %d" losses bound
  else if replans + restarts <> losses then
    fail "%d replans + %d restarts for %d losses" replans restarts losses
  else Ok ()

(* A corrupt read rolls back exactly once, and every segment commits
   at least once. *)
let storage ~segments ~rollbacks ~corrupt_reads ~commits =
  if rollbacks <> corrupt_reads then
    fail "%d rollbacks for %d corrupt reads" rollbacks corrupt_reads
  else if commits < segments then fail "%d commits for %d segments" commits segments
  else Ok ()

(* ---- serve ---- *)

(* [answer ~expected fields]: the answer says ok and carries each
   expected field with exactly the expected text. *)
let answer ~expected fields =
  let* () =
    match List.assoc_opt "ok" fields with
    | Some "true" -> Ok ()
    | _ -> fail "answer not ok: %s" (Option.value ~default:"?" (List.assoc_opt "error" fields))
  in
  List.fold_left
    (fun acc (k, v) ->
      let* () = acc in
      match List.assoc_opt k fields with
      | Some got when got = v -> Ok ()
      | Some got -> fail "field %s = %s, computed in-process: %s" k got v
      | None -> fail "answer lacks field %s" k)
    (Ok ()) expected

(* Each plan request is counted once, as a hit or as a miss. *)
let plan_accounting ~requests ~hits ~misses =
  if hits + misses = requests then Ok ()
  else fail "%d plan hits + %d misses for %d plan requests" hits misses requests
