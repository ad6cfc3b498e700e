type violation = { law : string; detail : string }

exception Violation of violation

let pp_violation ppf v = Format.fprintf ppf "invariant %s violated: %s" v.law v.detail

let () =
  Printexc.register_printer (function
    | Violation v -> Some (Format.asprintf "%a" pp_violation v)
    | _ -> None)

type law = { name : string; check : unit -> (unit, string) result }

type t = {
  mutable laws : law list; (* registration order, oldest first *)
  mutable armed : bool;
  mutable checks_run : int;
  mutable violations_seen : int;
}

let create () = { laws = []; armed = false; checks_run = 0; violations_seen = 0 }

(* Two subsystems may register the same law over different state (the
   rig's document cache and a corpus cache share one registry); the
   suffix makes a violation say which one broke. *)
let register t ~law check =
  let taken name = List.exists (fun l -> String.equal l.name name) t.laws in
  let rec free k =
    let name = Printf.sprintf "%s#%d" law k in
    if taken name then free (k + 1) else name
  in
  let name = if taken law then free 2 else law in
  t.laws <- t.laws @ [ { name; check } ]

let names t = List.map (fun l -> l.name) t.laws

let arm t = t.armed <- true
let disarm t = t.armed <- false
let armed t = t.armed
let checks_run t = t.checks_run
let violations_seen t = t.violations_seen

let check t =
  t.checks_run <- t.checks_run + 1;
  let violations =
    List.filter_map
      (fun l ->
        match l.check () with
        | Ok () -> None
        | Error detail -> Some { law = l.name; detail }
        | exception exn ->
            (* A law that cannot even be evaluated is itself a violation:
               conservation checks must be total. *)
            Some { law = l.name; detail = "check raised: " ^ Printexc.to_string exn })
      t.laws
  in
  t.violations_seen <- t.violations_seen + List.length violations;
  violations

let check_exn t =
  match check t with [] -> () | v :: _ -> raise (Violation v)

(* Law-writing helpers: most conservation laws are equalities or bounds
   over integer quantities; these produce uniform diagnostics.  A law runs
   on every sweep and almost always holds, so the message is formatted only
   on failure: a passing [equal_int], [leq_int] or [non_negative] allocates
   nothing. *)

let require cond fmt =
  if cond then Format.ikfprintf (fun _ -> Ok ()) Format.str_formatter fmt
  else Format.kasprintf (fun detail -> Error detail) fmt

let equal_int ~what expected actual =
  if expected = actual then Ok ()
  else
    require false "%s: expected %d, got %d (delta %d)" what expected actual (actual - expected)

let leq_int ~what actual bound =
  if actual <= bound then Ok () else require false "%s: %d exceeds bound %d" what actual bound

let non_negative ~what actual =
  if actual >= 0 then Ok () else require false "%s: %d is negative" what actual
