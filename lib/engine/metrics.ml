type labels = (string * string) list

type counter = { c_name : string; c_labels : labels; mutable c_value : int }
type instrument = I_counter of counter | I_gauge of (unit -> float) ref

type entry = { e_name : string; e_labels : labels; e_instrument : instrument }

type t = { by_key : (string, entry) Hashtbl.t }

let create () = { by_key = Hashtbl.create 64 }

let normalize labels = List.sort compare labels

let key name labels =
  let buf = Buffer.create (String.length name + 16) in
  Buffer.add_string buf name;
  List.iter
    (fun (k, v) ->
      Buffer.add_char buf '\x00';
      Buffer.add_string buf k;
      Buffer.add_char buf '=';
      Buffer.add_string buf v)
    labels;
  Buffer.contents buf

let kind_name = function I_counter _ -> "counter" | I_gauge _ -> "gauge"

let conflict name existing wanted =
  invalid_arg
    (Printf.sprintf "Metrics: %s is already registered as a %s (wanted a %s)" name
       (kind_name existing) wanted)

let make_counter ?(labels = []) name =
  { c_name = name; c_labels = normalize labels; c_value = 0 }

let register_counter t c =
  let k = key c.c_name c.c_labels in
  match Hashtbl.find_opt t.by_key k with
  | Some { e_instrument = I_counter _; _ } | None ->
      Hashtbl.replace t.by_key k
        { e_name = c.c_name; e_labels = c.c_labels; e_instrument = I_counter c }
  | Some { e_instrument; _ } -> conflict c.c_name e_instrument "counter"

let counter t ?(labels = []) name =
  let labels = normalize labels in
  match Hashtbl.find_opt t.by_key (key name labels) with
  | Some { e_instrument = I_counter c; _ } -> c
  | Some { e_instrument; _ } -> conflict name e_instrument "counter"
  | None ->
      let c = { c_name = name; c_labels = labels; c_value = 0 } in
      register_counter t c;
      c

let gauge t ?(labels = []) name read =
  let labels = normalize labels in
  let k = key name labels in
  match Hashtbl.find_opt t.by_key k with
  | Some { e_instrument = I_gauge cell; _ } -> cell := read
  | Some { e_instrument; _ } -> conflict name e_instrument "gauge"
  | None ->
      Hashtbl.replace t.by_key k
        { e_name = name; e_labels = labels; e_instrument = I_gauge (ref read) }

let incr ?(by = 1) c = c.c_value <- c.c_value + by
let counter_value c = c.c_value

type value = Counter of int | Gauge of float

type sample = { name : string; labels : labels; value : value }

let read_instrument = function
  | I_counter c -> Counter c.c_value
  | I_gauge cell -> Gauge (!cell ())

let snapshot t =
  Hashtbl.fold
    (fun _ e acc -> { name = e.e_name; labels = e.e_labels; value = read_instrument e.e_instrument } :: acc)
    t.by_key []
  |> List.sort (fun a b ->
         match compare a.name b.name with 0 -> compare a.labels b.labels | n -> n)

let value t ?(labels = []) name =
  match Hashtbl.find_opt t.by_key (key name (normalize labels)) with
  | Some e -> Some (read_instrument e.e_instrument)
  | None -> None

let sample_to_json s =
  let open Jsonx in
  let base =
    [
      ("name", String s.name);
      ("labels", Obj (List.map (fun (k, v) -> (k, String v)) s.labels));
    ]
  in
  match s.value with
  | Counter v -> Obj (base @ [ ("kind", String "counter"); ("value", Int v) ])
  | Gauge v -> Obj (base @ [ ("kind", String "gauge"); ("value", Float v) ])

let to_json t =
  let open Jsonx in
  Obj
    [
      ("schema_version", Int 1);
      ("metrics", List (List.map sample_to_json (snapshot t)));
    ]

let pp ppf t =
  List.iter
    (fun s ->
      let labels =
        match s.labels with
        | [] -> ""
        | ls ->
            "{" ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) ls) ^ "}"
      in
      match s.value with
      | Counter v -> Format.fprintf ppf "%-40s %d@." (s.name ^ labels) v
      | Gauge v -> Format.fprintf ppf "%-40s %.3f@." (s.name ^ labels) v)
    (snapshot t)
