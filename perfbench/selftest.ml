(* The benchmark's own tests: every output check accepts the program's
   real outputs and rejects each perturbed one. Run from the root of a
   checkout (it writes its inputs under _perfbench/inputs):

     python3 perfbench/steady.py --smoke    (builds and runs this too) *)

open Perfbench
module Dag = Ckpt_dag.Dag
module Pipeline = Ckpt_core.Pipeline
module Degrade = Ckpt_sim.Degrade
module Runner = Ckpt_sim.Runner
module Store = Ckpt_storage.Store

let failures = ref 0

let expect name ok =
  Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") name;
  if not ok then incr failures

let accepts name r =
  expect name (Result.is_ok r);
  Result.iter_error (Printf.printf "     %s\n") r

let rejects name r = expect name (Result.is_error r)

let quant () =
  let xs = Array.init 100 (fun i -> float_of_int (100 - i)) in
  expect "percentile: p50 of 1..100 is 50" (Quant.median xs = 50.);
  expect "percentile: p80 of 1..100 is 80, 20 beyond" (Quant.percentile 0.8 xs = 80. && Quant.beyond 0.8 100 = 20)

let roundtrip () =
  match Inputs.write_daxes ~workload:"selftest" ~seed:7 [ (Ckpt_workflows.Spec.Ligo, 50) ] with
  | [ input ] ->
      let loaded = Inputs.load input in
      expect "dax round trip: loaded workflow matches"
        (Inputs.roundtrip_error ~generated:input.Inputs.generated ~loaded = None);
      let heavier = Dag.copy loaded in
      Dag.set_weight heavier 0 (Dag.weight heavier 0 +. 0.01);
      expect "dax round trip: a changed weight is caught"
        (Inputs.roundtrip_error ~generated:input.Inputs.generated ~loaded:heavier <> None);
      let bigger = Dag.copy loaded in
      ignore (Dag.add_task bigger ~name:"extra" ~weight:0.);
      expect "dax round trip: a missing task is caught"
        (Inputs.roundtrip_error ~generated:input.Inputs.generated ~loaded:bigger <> None)
  | _ -> assert false

let figures () =
  let inputs = Figures.inputs ~seed:7 in
  let t = Figures.reference ~seed:7 inputs (Figures.setup inputs) in
  let outs = Figures.op t 1 in
  accepts "figures: real outputs pass" (Figures.check t 1 outs);
  let with_cmp f =
    Array.mapi (fun k (o : Figures.cell_out) -> if k = 4 then { o with Figures.cmp = f o.Figures.cmp } else o) outs
  in
  let cmp = outs.(4).Figures.cmp in
  rejects "figures: EM(CKPTNONE) off Theorem 1 by 1e-6"
    (Figures.check t 1 (with_cmp (fun c -> { c with Pipeline.em_none = c.Pipeline.em_none *. (1. +. 1e-6) })));
  rejects "figures: EM(CKPTSOME) below the critical path"
    (Figures.check t 1 (with_cmp (fun c -> { c with Pipeline.em_some = 1. })));
  rejects "figures: EM(CKPTALL) not finite"
    (Figures.check t 1 (with_cmp (fun c -> { c with Pipeline.em_all = Float.nan })));
  rejects "figures: CKPTALL one checkpoint short"
    (Figures.check t 1 (with_cmp (fun c -> { c with Pipeline.ckpts_all = c.Pipeline.ckpts_all - 1 })));
  rejects "figures: CKPTSOME fewer checkpoints than superchains"
    (Figures.check t 1 (with_cmp (fun c -> { c with Pipeline.ckpts_some = 0 })));
  rejects "figures: CKPTSOME more checkpoints than tasks"
    (Figures.check t 1 (with_cmp (fun c -> { c with Pipeline.ckpts_some = cmp.Pipeline.ckpts_all + 1 })));
  let tr = Trace.create () in
  expect "figures: traced op reproduces the untraced EMs bit for bit"
    (Figures.same (Figures.traced_op tr t 1) outs)

let faults () =
  let inputs = Faults.inputs ~seed:7 in
  let t = Faults.reference ~seed:7 inputs (Faults.setup inputs) in
  let outs = Faults.op t 0 in
  accepts "faults: real outputs pass" (Faults.check t 0 outs);
  let perturbed f = Array.mapi (fun k c -> if k = 0 then f c else c) outs in
  let repair f =
    perturbed (fun c -> { c with Faults.repair = Array.mapi (fun k x -> if k = 0 then f x else x) c.Faults.repair })
  in
  let storage f =
    perturbed (fun c -> { c with Faults.storage = Array.mapi (fun k x -> if k = 0 then f x else x) c.Faults.storage })
  in
  rejects "faults: an infinite makespan"
    (Faults.check t 0 (repair (fun x -> { x with Degrade.makespan = infinity })));
  rejects "faults: a makespan below W_par"
    (Faults.check t 0 (repair (fun x -> { x with Degrade.makespan = t.Faults.plans.(0).Faults.wpar *. 0.99 })));
  rejects "faults: losses above the bound"
    (Faults.check t 0 (repair (fun x -> { x with Degrade.losses = Faults.max_losses + 1 })));
  rejects "faults: replans + restarts <> losses"
    (Faults.check t 0 (repair (fun x -> { x with Degrade.replans = x.Degrade.replans + 1 })));
  rejects "faults: rollbacks <> corrupt reads"
    (Faults.check t 0 (storage (fun x -> { x with Runner.rollbacks = x.Runner.rollbacks + 1 })));
  rejects "faults: fewer commits than segments"
    (Faults.check t 0
       (storage (fun x -> { x with Runner.store = { x.Runner.store with Store.commits = 0 } })));
  let tr = Trace.create () in
  expect "faults: traced op reproduces the untraced trials" (Faults.same (Faults.traced_op tr t 0) outs)

let serve () =
  let answer =
    {|{"op":"plan","ok":true,"strategy":"ckpt-some","checkpoints":12,"expected_makespan":"1234.56","wpar":"1000.00","cache":"hit","elapsed_ms":0.25}|}
  in
  let fields = Serve.parse_flat answer in
  let expected =
    [ ("op", "plan"); ("strategy", "ckpt-some"); ("checkpoints", "12");
      ("expected_makespan", "1234.56"); ("wpar", "1000.00") ]
  in
  accepts "serve: a matching answer passes" (Checks.answer ~expected fields);
  rejects "serve: a makespan off by one cent"
    (Checks.answer ~expected:(("expected_makespan", "1234.57") :: List.tl expected) fields);
  rejects "serve: a not-ok answer"
    (Checks.answer ~expected (("ok", "false") :: List.remove_assoc "ok" fields));
  rejects "serve: a missing field"
    (Checks.answer ~expected (List.remove_assoc "wpar" fields));
  accepts "serve: every plan request counted once"
    (Checks.plan_accounting ~requests:10 ~hits:7 ~misses:3);
  rejects "serve: a plan request counted twice"
    (Checks.plan_accounting ~requests:10 ~hits:8 ~misses:3)

let () =
  quant ();
  roundtrip ();
  figures ();
  faults ();
  serve ();
  if !failures > 0 then begin
    Printf.printf "%d selftest(s) failed\n" !failures;
    exit 1
  end
  else print_endline "all selftests passed"
