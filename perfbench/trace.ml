(* Spans recorded by the benchmark around its own calls into the
   library, for the traced run. Spans are kept in memory as per-name
   totals; nothing is written until the run ends.

   One recorder serves one domain: the workloads trace only on the
   domain that drives them. *)

type t = (string, float ref) Hashtbl.t  (* total ms per span name *)

let create () : t = Hashtbl.create 16

(* [span t name f] runs [f] and adds its wall time to [name]. *)
let span t name f =
  let v, ms = Quant.time_ms f in
  (match Hashtbl.find_opt t name with
  | Some r -> r := !r +. ms
  | None -> Hashtbl.add t name (ref ms));
  v

let ms t name = match Hashtbl.find_opt t name with Some r -> !r | None -> 0.

(* Total span time over all names. *)
let total_ms t = Hashtbl.fold (fun _ r acc -> acc +. !r) t 0.
