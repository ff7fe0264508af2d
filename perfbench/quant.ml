(* Order statistics and process measurements shared by the workloads.
   Percentiles are the library's nearest-rank ones
   (Ckpt_prob.Stats.quantile_of_array). *)

module Stats = Ckpt_prob.Stats

let now () = Unix.gettimeofday ()

(* Wall time of [f ()] in milliseconds, with its result. *)
let time_ms f =
  let t0 = now () in
  let v = f () in
  (v, (now () -. t0) *. 1000.)

let percentile q samples = Stats.quantile_of_array samples q
let median samples = percentile 0.5 samples
let mean = Stats.mean_of_array

(* Samples lying strictly beyond the nearest-rank percentile [q] of
   [n] samples. *)
let beyond q n = n - int_of_float (Float.ceil (q *. float_of_int n))

(* Peak resident set (VmHWM) of process [pid], in MB (2^20 bytes). *)
let vmhwm_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%s/status" pid) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | _ -> scan ()
        | exception End_of_file -> failwith "Quant.vmhwm_mb: no VmHWM line"
      in
      scan ())

let self_vmhwm_mb () = vmhwm_mb "self"
