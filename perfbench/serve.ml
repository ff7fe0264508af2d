(* The serve workload: `ckptwf serve --socket ... --cache-cap N --jobs 1`
   under two closed-loop clients. One op is one connection carrying one
   batch of fixed make-up (Inputs.batch): plan requests on a hot key
   set that stays cached, one plan request on a cold key that misses
   and evicts, and one analytic evaluate. *)

module Spec = Ckpt_workflows.Spec
module Strategy = Ckpt_core.Strategy
module Pipeline = Ckpt_core.Pipeline
module Analytic = Ckpt_analytic.Analytic

let clients = 2
let stats_probes = 200

(* ---- the answers ---- *)

(* A daemon answer is one flat JSON object; its fields are returned
   as (name, text), strings unescaped and other values verbatim. *)
let parse_flat s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let skip_ws () = while !pos < n && (s.[!pos] = ' ' || s.[!pos] = '\t') do incr pos done in
  let expect c =
    skip_ws ();
    if peek () <> c then failwith (Printf.sprintf "answer: expected %c at %d in %s" c !pos s);
    incr pos
  in
  let str () =
    expect '"';
    let b = Buffer.create 16 in
    while peek () <> '"' do
      if !pos >= n then failwith "answer: unterminated string";
      (if peek () = '\\' then begin
         incr pos;
         match peek () with
         | 'n' -> Buffer.add_char b '\n'
         | 't' -> Buffer.add_char b '\t'
         | 'u' ->
             let code = int_of_string ("0x" ^ String.sub s (!pos + 1) 4) in
             Buffer.add_char b (Char.chr (code land 0xff));
             pos := !pos + 4
         | c -> Buffer.add_char b c
       end
       else Buffer.add_char b (peek ()));
      incr pos
    done;
    incr pos;
    Buffer.contents b
  in
  let value () =
    skip_ws ();
    if peek () = '"' then str ()
    else begin
      let start = !pos in
      while !pos < n && not (List.mem s.[!pos] [ ','; '}'; ' ' ]) do incr pos done;
      String.sub s start (!pos - start)
    end
  in
  expect '{';
  skip_ws ();
  let fields = ref [] in
  if peek () = '}' then incr pos
  else begin
    let continue = ref true in
    while !continue do
      let k = str () in
      expect ':';
      fields := (k, value ()) :: !fields;
      skip_ws ();
      if peek () = ',' then incr pos else (expect '}'; continue := false)
    done
  end;
  List.rev !fields

(* ---- the same computations, made in-process through the library ---- *)

let kind_of = function
  | "some" -> Strategy.Ckpt_some
  | "all" -> Strategy.Ckpt_all
  | s -> invalid_arg ("Serve.kind_of: " ^ s)

let prepare (k : Inputs.key) =
  let dag = Spec.generate k.Inputs.family ~seed:k.Inputs.wf_seed ~tasks:Inputs.serve_tasks () in
  Pipeline.prepare ~dag ~processors:Inputs.serve_processors ~pfail:Inputs.serve_pfail
    ~ccr:k.Inputs.ccr ()

let expected_plan k =
  let kind = kind_of k.Inputs.strategy in
  let plan = Pipeline.plan ~jobs:1 (prepare k) kind in
  [ ("op", "plan");
    ("strategy", Strategy.kind_name kind);
    ("checkpoints", string_of_int plan.Strategy.checkpoint_count);
    ("expected_makespan", Printf.sprintf "%.2f" (Strategy.expected_makespan plan));
    ("wpar", Printf.sprintf "%.2f" plan.Strategy.wpar) ]

let expected_evaluate k =
  let c = Analytic.compare_strategies (prepare k) in
  [ ("op", "evaluate");
    ("eval", "analytic");
    ("method", "pathapprox");
    ("em_some", Printf.sprintf "%.2f" c.Pipeline.em_some);
    ("ckpts_some", string_of_int c.Pipeline.ckpts_some);
    ("em_all", Printf.sprintf "%.2f" c.Pipeline.em_all);
    ("ckpts_all", string_of_int c.Pipeline.ckpts_all);
    ("rel_all", Printf.sprintf "%.4f" c.Pipeline.rel_all);
    ("em_none", Printf.sprintf "%.2f" c.Pipeline.em_none);
    ("rel_none", Printf.sprintf "%.4f" c.Pipeline.rel_none) ]

(* The expected answers of batch [i], in request order. *)
type expected = { hot : (string * string) list array; cold : (string * string) list array;
                  evaluate : (string * string) list }

let expected (s : Inputs.stream) =
  { hot = Array.map expected_plan s.Inputs.hot; cold = Array.map expected_plan s.Inputs.cold;
    evaluate = expected_evaluate s.Inputs.evaluate }

let expected_batch e i =
  Array.to_list e.hot @ [ e.cold.(i mod Array.length e.cold); e.evaluate ]

(* ---- the daemon ---- *)

type daemon = { pid : int; socket : string; drain : Thread.t }

let start_daemon ~ckptwf ~socket ~cap =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
  let pid =
    Unix.create_process ckptwf
      [| ckptwf; "serve"; "--socket"; socket; "--cache-cap"; string_of_int cap; "--jobs"; "1" |]
      devnull devnull wr
  in
  Unix.close wr;
  Unix.close devnull;
  let ic = Unix.in_channel_of_descr rd in
  (* the daemon reports on stderr once its socket listens *)
  let rec await () =
    match input_line ic with
    | line ->
        let ready =
          let k = "serving on" in
          let rec has i =
            i + String.length k <= String.length line
            && (String.sub line i (String.length k) = k || has (i + 1))
          in
          has 0
        in
        if not ready then (prerr_endline line; await ())
    | exception End_of_file ->
        close_in_noerr ic;
        ignore (Unix.waitpid [] pid);
        failwith "serve: the daemon exited before listening"
  in
  await ();
  let drain =
    Thread.create
      (fun () ->
        (try
           while true do
             prerr_endline (input_line ic)
           done
         with End_of_file | Sys_error _ -> ());
        close_in_noerr ic)
      ()
  in
  { pid; socket; drain }

let stop_daemon d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let rec wait () =
    match Unix.waitpid [] d.pid with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  wait ();
  Thread.join d.drain;
  if Sys.file_exists d.socket then Sys.remove d.socket

(* One connection: send the batch, half-close, read answers to EOF. *)
let exchange socket lines =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.connect fd (Unix.ADDR_UNIX socket);
      let req = String.concat "" (List.map (fun l -> l ^ "\n") lines) in
      let rec send off =
        if off < String.length req then
          send (off + Unix.write_substring fd req off (String.length req - off))
      in
      send 0;
      Unix.shutdown fd Unix.SHUTDOWN_SEND;
      let buf = Buffer.create 4096 and chunk = Bytes.create 65536 in
      let rec recv () =
        let k = Unix.read fd chunk 0 (Bytes.length chunk) in
        if k > 0 then (Buffer.add_subbytes buf chunk 0 k; recv ())
      in
      recv ();
      String.split_on_char '\n' (Buffer.contents buf) |> List.filter (fun l -> l <> ""))

(* ---- a run ---- *)

type batch = { index : int; rtt_ms : float; answers : string list }

type run = {
  setup_s : float array;
  batches : batch array;
  phase_s : float;
  peak_rss_mb : float;
  stats : (string * string) list;
  stats_rtt_ms : float array;
  plan_requests : int;  (* sent to the measured daemon *)
}

let socket_path rep = Printf.sprintf "_perfbench/serve-%d-%d.sock" (Unix.getpid ()) rep

(* Set-up ends when the daemon has answered the warm-up batch. *)
let setup ~ckptwf stream rep =
  let t0 = Quant.now () in
  let d = start_daemon ~ckptwf ~socket:(socket_path rep) ~cap:stream.Inputs.cap in
  (match exchange d.socket (Inputs.warmup stream) with
  | _ -> ()
  | exception e ->
      stop_daemon d;
      raise e);
  (d, Quant.now () -. t0)

let run ~ckptwf ~seconds ~setup_reps stream =
  Inputs.mkdir_p "_perfbench";
  let d, first = setup ~ckptwf stream 0 in
  Fun.protect
    ~finally:(fun () -> stop_daemon d)
    (fun () ->
      let setup_s = Array.make setup_reps first in
      let next = Atomic.make 0 in
      let results = Array.make clients [] in
      let client deadline c =
        let rec loop acc =
          if Quant.now () >= deadline then results.(c) <- acc
          else begin
            let index = Atomic.fetch_and_add next 1 in
            match Quant.time_ms (fun () -> exchange d.socket (Inputs.batch stream index)) with
            | answers, rtt_ms -> loop ({ index; rtt_ms; answers } :: acc)
            | exception e ->
                (* a batch without answers fails its check; this client
                   stops for the rest of the slice *)
                Printf.eprintf "serve: batch %d: %s\n%!" index (Printexc.to_string e);
                results.(c) <- { index; rtt_ms = 0.; answers = [] } :: acc
          end
        in
        loop results.(c)
      in
      (* The timed phase runs in [setup_reps] slices of equal length.
         Before each slice but the first, another daemon is set up,
         warmed and stopped while the measured one idles, so that the
         set-ups are spread over the run and setup_s sees the host as
         the batches see it. *)
      let phase_s = ref 0. in
      for slice = 0 to setup_reps - 1 do
        if slice > 0 then begin
          let d', s = setup ~ckptwf stream slice in
          stop_daemon d';
          setup_s.(slice) <- s
        end;
        let t0 = Quant.now () in
        let deadline = t0 +. (seconds /. float_of_int setup_reps) in
        let threads = List.init clients (Thread.create (client deadline)) in
        List.iter Thread.join threads;
        phase_s := !phase_s +. (Quant.now () -. t0)
      done;
      let phase_s = !phase_s in
      let stats_line = [ "{\"op\":\"stats\"}" ] in
      let stats = parse_flat (List.hd (exchange d.socket stats_line)) in
      (* the floor under every batch: one-request connections, one at a
         time (accept, handler-domain spawn, JSON, close) *)
      let stats_rtt_ms =
        Array.init stats_probes (fun _ ->
            snd (Quant.time_ms (fun () -> exchange d.socket stats_line)))
      in
      let peak_rss_mb = Quant.vmhwm_mb (string_of_int d.pid) in
      let batches = Array.of_list (List.concat (Array.to_list results)) in
      Array.sort (fun a b -> compare a.index b.index) batches;
      let per_batch = List.length (Inputs.batch stream 0) - 1 in
      {
        setup_s;
        batches;
        phase_s;
        peak_rss_mb;
        stats;
        stats_rtt_ms;
        plan_requests = Array.length stream.Inputs.hot + (per_batch * Array.length batches);
      })

let check_batch e b =
  let expected = expected_batch e b.index in
  if List.length b.answers <> List.length expected then
    Error (Printf.sprintf "batch %d: %d answers for %d requests" b.index
             (List.length b.answers) (List.length expected))
  else
    List.fold_left2
      (fun acc ans exp ->
        match acc with
        | Error _ -> acc
        | Ok () ->
            let fields = parse_flat ans in
            let cache_ok =
              match (List.assoc "op" exp, List.assoc_opt "cache" fields) with
              | "plan", (Some "hit" | Some "miss") | "evaluate", _ -> Ok ()
              | _ -> Error ("plan answer without a cache outcome: " ^ ans)
            in
            Result.bind cache_ok (fun () -> Checks.answer ~expected:exp fields)
            |> Result.map_error (Printf.sprintf "batch %d: %s" b.index))
      (Ok ()) b.answers expected

let stat r name = int_of_string (List.assoc name r.stats)

let check_accounting r =
  Checks.plan_accounting ~requests:r.plan_requests ~hits:(stat r "plan_hits")
    ~misses:(stat r "plan_misses")

(* Per-batch layer times from the daemon's own elapsed_ms. *)
let layers r =
  let n = float_of_int (Array.length r.batches) in
  let sums = Hashtbl.create 8 in
  let add k v = Hashtbl.replace sums k (v +. Option.value ~default:0. (Hashtbl.find_opt sums k)) in
  Array.iter
    (fun b ->
      add "serve.batch_rtt_ms" b.rtt_ms;
      List.iter
        (fun ans ->
          let f = parse_flat ans in
          let ms = float_of_string (List.assoc "elapsed_ms" f) in
          add "serve.daemon_ms" ms;
          match (List.assoc "op" f, List.assoc_opt "cache" f) with
          | "plan", Some "hit" -> add "serve.plan_hit_ms" ms
          | "plan", _ -> add "serve.plan_miss_ms" ms
          | _ -> add "serve.evaluate_ms" ms)
        b.answers)
    r.batches;
  let get k = Option.value ~default:0. (Hashtbl.find_opt sums k) /. n in
  let counts =
    List.map
      (fun k -> ("service." ^ k, float_of_int (stat r k)))
      [ "plan_hits"; "plan_misses"; "plan_evictions"; "setup_hits"; "setup_misses" ]
  in
  [ ("serve.batch_rtt_ms", get "serve.batch_rtt_ms");
    ("serve.daemon_ms", get "serve.daemon_ms");
    ("serve.overhead_ms", get "serve.batch_rtt_ms" -. get "serve.daemon_ms");
    ("serve.plan_hit_ms", get "serve.plan_hit_ms");
    ("serve.plan_miss_ms", get "serve.plan_miss_ms");
    ("serve.evaluate_ms", get "serve.evaluate_ms");
    ("serve.stats_rtt_ms", Quant.median r.stats_rtt_ms) ]
  @ counts
