(* In-memory spans for the traced run.

   A span is one call into a layer, recorded from the benchmark's side
   of the call: name, start, end, the request it served and the span
   that caused it.  Spans stay in memory while the workload runs and
   are written out once at the end.

   Two kinds of span carry no interval of their own:
   - a {e probe} span times a layer call that the program makes inside
     a bigger public function (e.g. [Driver.analyze] inside
     [Service.analyze_payload]).  The benchmark replays that call on an
     identically prepared state and records it as a child of the bigger
     call, so the bigger call's self time is what the probe leaves over;
   - a {e counter} span carries a time the program measured itself
     (the solver tiers' own elapsed counters). *)

type span = {
  id : int;
  parent : int;  (** 0 = a root *)
  req : int;  (** request id shared by every span of one op *)
  name : string;
  t0 : int64;
  mutable t1 : int64;
  kind : [ `Call | `Probe | `Counter ];
}

let enabled = ref false
let spans : span list ref = ref []
let next_id = ref 0
let current = ref 0
let request = ref 0

let set_request r = request := r

let fresh () =
  incr next_id;
  !next_id

(* [span name f] times [f] as a child of the innermost open span.
   [parent] overrides the parent; [probe] marks a replayed inner call.
   With tracing off it is just [f ()]. *)
let span ?parent ?(probe = false) name f =
  if not !enabled then f ()
  else begin
    let id = fresh () in
    let parent = Option.value parent ~default:!current in
    let s =
      {
        id;
        parent;
        req = !request;
        name;
        t0 = Clock.now_ns ();
        t1 = 0L;
        kind = (if probe then `Probe else `Call);
      }
    in
    let saved = !current in
    current := id;
    let finish () =
      s.t1 <- Clock.now_ns ();
      current := saved;
      spans := s :: !spans
    in
    match f () with
    | r ->
      finish ();
      r
    | exception e ->
      finish ();
      raise e
  end

(* The id of the innermost open span (0 outside any span). *)
let here () = !current

(* Record an interval measured elsewhere (a client round trip) or a
   program-reported duration ([`Counter], [ms] long, no real start). *)
let add ?(kind = `Call) ~parent ~req name ~t0 ~t1 =
  if !enabled then
    spans := { id = fresh (); parent; req; name; t0; t1; kind } :: !spans

let add_counter ~parent name ms =
  if !enabled && ms > 0. then
    add ~kind:`Counter ~parent ~req:!request name ~t0:0L
      ~t1:(Int64.of_float (ms *. 1e6))

let dur_ms s = Clock.ms_between s.t0 s.t1

(* Per-name self time: a span's duration minus its children's. *)
let self_times () =
  let self = Hashtbl.create 64 in
  let by_id = Hashtbl.create 4096 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) !spans;
  List.iter
    (fun s -> Hashtbl.replace self s.id (dur_ms s))
    !spans;
  List.iter
    (fun s ->
      if s.parent <> 0 then
        match Hashtbl.find_opt self s.parent with
        | Some v -> Hashtbl.replace self s.parent (v -. dur_ms s)
        | None -> ())
    !spans;
  let totals = Hashtbl.create 32 in
  Hashtbl.iter
    (fun id v ->
      let s = Hashtbl.find by_id id in
      let c, t = Option.value (Hashtbl.find_opt totals s.name) ~default:(0, 0.) in
      Hashtbl.replace totals s.name (c + 1, t +. v))
    self;
  totals

(* Inclusive total per name. *)
let inclusive name =
  List.fold_left
    (fun acc s -> if s.name = name then acc +. dur_ms s else acc)
    0. !spans

let count () = List.length !spans

(* One JSON object per line, oldest span first. *)
let write path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"req\":%d,\"name\":%S,\"kind\":%S,\"t0_ns\":%Ld,\"t1_ns\":%Ld}\n"
        s.id s.parent s.req s.name
        (match s.kind with
        | `Call -> "call"
        | `Probe -> "probe"
        | `Counter -> "counter")
        s.t0 s.t1)
    (List.rev !spans);
  close_out oc
