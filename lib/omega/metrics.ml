(* The one metrics registry.

   Metrics are registered at module initialisation into a fixed table of
   slots (name and kind per slot, in registration order); a handle is
   its slot index.  A registry value is three parallel arrays of cells
   sized to the table's capacity, so values created before a later
   module registers still have room for its cells.  Each domain owns a
   current registry in one DLS key: hot-path bumps are unsynchronised
   stores, and cross-domain totals come from [merge_into], whose
   per-kind joins are all commutative and associative. *)

type kind = Counter | Gauge | Timer | Worst of string (* value field *)

type t = { ints : int array; floats : float array; labels : string array }

type counter = int
type gauge = int
type timer = int
type worst = int

let capacity = 128
let names = Array.make capacity ""
let kinds = Array.make capacity Counter
let registered = ref 0

let register name kind =
  let i = !registered in
  if i >= capacity then invalid_arg ("Metrics: registry full at " ^ name);
  for j = 0 to i - 1 do
    if names.(j) = name then invalid_arg ("Metrics: duplicate " ^ name)
  done;
  names.(i) <- name;
  kinds.(i) <- kind;
  registered := i + 1;
  i

let counter name = register name Counter
let gauge name = register name Gauge
let timer name = register name Timer
let worst ~label ~value = register label (Worst value)

let create () =
  {
    ints = Array.make capacity 0;
    floats = Array.make capacity 0.;
    labels = Array.make capacity "";
  }

let key = Domain.DLS.new_key create
let current () = Domain.DLS.get key

let add_to t c n = t.ints.(c) <- t.ints.(c) + n

let join_worst t i v label =
  if v > t.ints.(i) then begin
    t.ints.(i) <- v;
    t.labels.(i) <- label
  end
  else if v = t.ints.(i) && v > 0 && label < t.labels.(i) then
    t.labels.(i) <- label

let incr c =
  let t = Domain.DLS.get key in
  t.ints.(c) <- t.ints.(c) + 1

let observe g v =
  let t = Domain.DLS.get key in
  if v > t.ints.(g) then t.ints.(g) <- v

let add_ms c x =
  let t = Domain.DLS.get key in
  t.floats.(c) <- t.floats.(c) +. x

let note_worst w v label = join_worst (Domain.DLS.get key) w v label

(* The slots whose names lie under a dotted prefix. *)
let slots_under under =
  let prefix = under ^ "." in
  List.filter
    (fun i -> String.starts_with ~prefix names.(i))
    (List.init !registered Fun.id)

let reset ~under =
  let t = current () in
  List.iter
    (fun i ->
      t.ints.(i) <- 0;
      t.floats.(i) <- 0.;
      t.labels.(i) <- "")
    (slots_under under)

let scoped f =
  let saved = current () in
  let mine = create () in
  Domain.DLS.set key mine;
  let v = Fun.protect ~finally:(fun () -> Domain.DLS.set key saved) f in
  (v, mine)

let merge_into dst src =
  for i = 0 to !registered - 1 do
    match kinds.(i) with
    | Counter -> add_to dst i src.ints.(i)
    | Gauge -> if src.ints.(i) > dst.ints.(i) then dst.ints.(i) <- src.ints.(i)
    | Timer -> dst.floats.(i) <- dst.floats.(i) +. src.floats.(i)
    | Worst _ -> join_worst dst i src.ints.(i) src.labels.(i)
  done

let count t c = t.ints.(c)
let peak t g = t.ints.(g)
let ms t c = t.floats.(c)
let worst_of t w = (t.ints.(w), t.labels.(w))

type json =
  | Int of int
  | Float of float
  | Str of string
  | Obj of (string * json) list

(* Insert a leaf at a dotted path, keeping first-registration order at
   every level. *)
let rec insert path leaf fields =
  match path with
  | [] -> fields
  | [ k ] -> fields @ [ (k, leaf) ]
  | k :: rest ->
    if List.mem_assoc k fields then
      List.map
        (function
          | k', Obj sub when k' = k -> (k', Obj (insert rest leaf sub))
          | f -> f)
        fields
    else fields @ [ (k, Obj (insert rest leaf [])) ]

let to_json ~under t =
  let skip = String.length under + 1 in
  let put fields name leaf =
    let rest = String.sub name skip (String.length name - skip) in
    insert (String.split_on_char '.' rest) leaf fields
  in
  List.fold_left
    (fun fields i ->
      match kinds.(i) with
      | Counter | Gauge -> put fields names.(i) (Int t.ints.(i))
      | Timer -> put fields names.(i) (Float t.floats.(i))
      | Worst value ->
        put (put fields names.(i) (Str t.labels.(i))) value (Int t.ints.(i)))
    [] (slots_under under)
