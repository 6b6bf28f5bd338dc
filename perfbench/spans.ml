(* In-memory span recorder for the traced run.

   A span is one call into a layer, timed from the benchmark's side: its
   name is "<layer>.<operation>", it has a wall start and end, the span
   that caused it (its parent, or -1 for a root) and the transaction it
   belongs to (or -1).  Spans live in memory, in growable parallel
   arrays, and are written out once, when the run ends. *)

type t = {
  mutable n : int;
  mutable name : int array;
  mutable start : float array;
  mutable stop : float array;
  mutable parent : int array;
  mutable txn : int array;
  ids : (string, int) Hashtbl.t;
  mutable names : string array;
}

let create () =
  let cap = 4096 in
  {
    n = 0;
    name = Array.make cap 0;
    start = Array.make cap 0.0;
    stop = Array.make cap 0.0;
    parent = Array.make cap (-1);
    txn = Array.make cap (-1);
    ids = Hashtbl.create 32;
    names = [||];
  }

let intern t s =
  match Hashtbl.find_opt t.ids s with
  | Some i -> i
  | None ->
    let i = Array.length t.names in
    Hashtbl.add t.ids s i;
    t.names <- Array.append t.names [| s |];
    i

let grow t =
  let cap = 2 * Array.length t.name in
  let ext a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.n;
    b
  in
  t.name <- ext t.name 0;
  t.start <- ext t.start 0.0;
  t.stop <- ext t.stop 0.0;
  t.parent <- ext t.parent (-1);
  t.txn <- ext t.txn (-1)

(* Open a span now; returns its id for [close] and for children. *)
let open_ t ?(parent = -1) ?(txn = -1) name =
  if t.n = Array.length t.name then grow t;
  let i = t.n in
  t.n <- i + 1;
  t.name.(i) <- intern t name;
  t.parent.(i) <- parent;
  t.txn.(i) <- txn;
  t.start.(i) <- Unix.gettimeofday ();
  t.stop.(i) <- t.start.(i);
  i

let close t i = t.stop.(i) <- Unix.gettimeofday ()

let with_span t ?parent ?txn name f =
  let i = open_ t ?parent ?txn name in
  Fun.protect ~finally:(fun () -> close t i) f

let count t = t.n

let span_name t i = t.names.(t.name.(i))

let duration t i = t.stop.(i) -. t.start.(i)

let layer_of name = match String.index_opt name '.' with Some k -> String.sub name 0 k | None -> name

(* Total duration and call count of every span with this exact name. *)
let total t name =
  match Hashtbl.find_opt t.ids name with
  | None -> (0.0, 0)
  | Some id ->
    let s = ref 0.0 and c = ref 0 in
    for i = 0 to t.n - 1 do
      if t.name.(i) = id then begin
        s := !s +. duration t i;
        incr c
      end
    done;
    (!s, !c)

(* Self time per layer: a span's duration minus the time its children
   cover.  Children of one parent run one after another on the caller's
   thread, so their durations add up without overlap. *)
let self_by_layer t =
  let child = Array.make t.n 0.0 in
  for i = 0 to t.n - 1 do
    let p = t.parent.(i) in
    if p >= 0 then child.(p) <- child.(p) +. duration t i
  done;
  let tbl = Hashtbl.create 16 in
  for i = 0 to t.n - 1 do
    let l = layer_of (span_name t i) in
    let prev = Option.value ~default:0.0 (Hashtbl.find_opt tbl l) in
    Hashtbl.replace tbl l (prev +. Float.max 0.0 (duration t i -. child.(i)))
  done;
  List.sort compare (Hashtbl.fold (fun l s acc -> (l, s) :: acc) tbl [])

(* Chrome trace_event JSON, one complete event per span, microseconds from
   the first span; parent and transaction ids ride in [args]. *)
let write t path =
  let t0 = ref infinity in
  for i = 0 to t.n - 1 do
    t0 := Float.min !t0 t.start.(i)
  done;
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[\n";
  for i = 0 to t.n - 1 do
    let name = span_name t i in
    Printf.fprintf oc
      "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"txn\":%d}}\n"
      (if i = 0 then "" else ",")
      name (layer_of name)
      ((t.start.(i) -. !t0) *. 1e6)
      (duration t i *. 1e6)
      i t.parent.(i) t.txn.(i)
  done;
  output_string oc "],\"selfTimeByLayer\":{";
  List.iteri
    (fun k (l, s) -> Printf.fprintf oc "%s\"%s\":%.6f" (if k = 0 then "" else ",") l s)
    (self_by_layer t);
  output_string oc "}}\n";
  close_out oc
