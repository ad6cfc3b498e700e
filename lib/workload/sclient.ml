module Simtime = Engine.Simtime
module Sim = Engine.Sim
module Stats = Engine.Stats
module Machine = Procsim.Machine
module Socket = Netsim.Socket
module Stack = Netsim.Stack
module Ipaddr = Netsim.Ipaddr
module Http = Httpsim.Http

type client = {
  index : int;
  src : Ipaddr.t;
  mutable attempt : int; (* invalidates callbacks of abandoned attempts *)
  mutable established : bool; (* current attempt reached establishment *)
  mutable issued : Simtime.t; (* when the current request was initiated *)
  mutable remaining : int; (* requests left on the current connection *)
  mutable handlers : Socket.client_handlers;
      (* one preallocated record per client, not one per attempt: the
         attempt number rides in the connection's ephemeral source port,
         so the shared callbacks can tell live events from stale ones *)
}

type t = {
  stack : Stack.t;
  name : string;
  port : int;
  doc : int; (* interned [path] *)
  doc_mix : (Engine.Dist.t * int array) option;
  persistent : bool;
  requests_per_conn : int;
  think_time : Simtime.span;
  jitter : Simtime.span;
  rng : Engine.Rng.t;
  syn_timeout : Simtime.span;
  retry_delay : Simtime.span;
  clients : client array;
  mutable running : bool;
  mutable started : bool;
  mutable completed : int;
  mutable refused : int;
  mutable timeouts : int;
  mutable latencies : Stats.Summary.t;
  mutable reservoir : Stats.Reservoir.t;
}

let create ~stack ?(name = "clients") ?(src_base = Ipaddr.v 10 1 0 1) ?(port = 80)
    ?(path = "/doc/1k") ?path_mix ?doc_mix ?(persistent = false) ?(requests_per_conn = 64)
    ?(think_time = Simtime.span_zero) ?(jitter = Simtime.span_zero)
    ?(syn_timeout = Simtime.sec 3) ?(retry_delay = Simtime.ms 500) ?(seed = 42) ~count () =
  if count <= 0 then invalid_arg "Sclient.create: count must be positive";
  let clients =
    Array.init count (fun index ->
        {
          index;
          src = Ipaddr.offset src_base index;
          attempt = 0;
          established = false;
          issued = Simtime.zero;
          remaining = 0;
          handlers = Socket.null_handlers;
        })
  in
  (* Everything downstream works in interned doc ids; [path]/[path_mix]
     are the string compat view over [doc]/[doc_mix].  The empirical
     index distribution consumes the random stream exactly as it always
     has (one float draw per request), so existing seeds replay. *)
  let doc_mix =
    match (path_mix, doc_mix) with
    | Some _, Some _ -> invalid_arg "Sclient.create: both path_mix and doc_mix given"
    | None, mix -> mix
    | Some [], None -> invalid_arg "Sclient.create: empty path mix"
    | Some pairs, None ->
        let weights = Array.of_list (List.map fst pairs) in
        let docs =
          Array.of_list (List.map (fun (_, path) -> Httpsim.Docset.intern path) pairs)
        in
        let dist =
          Engine.Dist.empirical (Array.mapi (fun i w -> (w, float_of_int i)) weights)
        in
        Some (dist, docs)
  in
  (match doc_mix with
  | Some (_, [||]) -> invalid_arg "Sclient.create: empty doc mix"
  | Some _ | None -> ());
  {
    stack;
    name;
    port;
    doc = Httpsim.Docset.intern path;
    doc_mix;
    persistent;
    requests_per_conn;
    think_time;
    jitter;
    rng = Engine.Rng.create ~seed;
    syn_timeout;
    retry_delay;
    clients;
    running = false;
    started = false;
    completed = 0;
    refused = 0;
    timeouts = 0;
    latencies = Stats.Summary.create ();
    reservoir = Stats.Reservoir.create (Engine.Rng.create ~seed:(seed + 1));
  }

let sim t = Machine.sim (Stack.machine t.stack)
let now t = Sim.now (sim t)
let after t span f = Sim.post (sim t) span f

(* Think time with optional uniform jitter, de-phasing closed loops. *)
let think t =
  let extra =
    let jitter_ns = Simtime.span_to_ns t.jitter in
    if jitter_ns <= 0 then 0 else Engine.Rng.int t.rng (jitter_ns + 1)
  in
  Simtime.span_add t.think_time (Simtime.span_of_ns extra)

let record_response t client =
  t.completed <- t.completed + 1;
  let latency_ms = Simtime.span_to_ms_f (Simtime.diff (now t) client.issued) in
  Stats.Summary.add t.latencies latency_ms;
  Stats.Reservoir.add t.reservoir latency_ms

let pick_doc t =
  match t.doc_mix with
  | None -> t.doc
  | Some (dist, docs) -> docs.(Engine.Dist.sample_index dist t.rng)

let request_payload t ~created =
  Http.request_doc ~now:created ~keep_alive:t.persistent ~doc:(pick_doc t) ()

let rec initiate t client =
  if t.running then begin
    client.attempt <- client.attempt + 1;
    let attempt = client.attempt in
    client.established <- false;
    client.issued <- now t;
    client.remaining <- (if t.persistent then t.requests_per_conn else 1);
    (* The attempt number rides in the ephemeral source port (real clients
       vary it per connection), so the connection objects handed back to
       the shared per-client handlers identify the attempt they belong to
       without a fresh closure set per attempt. *)
    Stack.connect t.stack ~src:client.src ~src_port:attempt ~port:t.port
      ~handlers:client.handlers ();
    (* SYNs can vanish silently (queue overflow, idle-class early discard):
       retransmit like TCP after a timeout. *)
    after t t.syn_timeout (fun () ->
        if t.running && client.attempt = attempt && not client.established then begin
          t.timeouts <- t.timeouts + 1;
          initiate t client
        end)
  end

and send_request t client conn =
  client.issued <- now t;
  Stack.client_send t.stack conn (request_payload t ~created:client.issued)

(* The one handlers record this client ever uses.  A connection belongs to
   the current attempt iff its source port equals [client.attempt];
   events from an abandoned attempt's connection fail that test and are
   dropped, exactly as the old per-attempt closures' captured counter
   did.  Refusals carry no connection: one can only be in flight while
   the current attempt is unestablished, which the guard checks. *)
and make_handlers t client =
  {
    Socket.on_established =
      (fun conn ->
        if t.running && conn.Socket.src_port = client.attempt then begin
          client.established <- true;
          send_request t client conn
        end);
    on_refused =
      (fun () ->
        if t.running && not client.established then begin
          t.refused <- t.refused + 1;
          let attempt = client.attempt in
          after t t.retry_delay (fun () ->
              if t.running && client.attempt = attempt then initiate t client)
        end);
    on_response =
      (fun conn _payload ->
        if conn.Socket.src_port = client.attempt then begin
          record_response t client;
          client.remaining <- client.remaining - 1;
          let attempt = client.attempt in
          if t.persistent && client.remaining > 0 then
            after t (think t) (fun () ->
                if t.running && client.attempt = attempt then send_request t client conn)
          else if t.persistent then begin
            Stack.client_close t.stack conn;
            after t (think t) (fun () ->
                if t.running && client.attempt = attempt then initiate t client)
          end
          (* Non-persistent: the server closes the connection after the
             response, and the loop restarts from [on_closed]. *)
        end);
    on_closed =
      (fun conn ->
        if t.running && conn.Socket.src_port = client.attempt && not t.persistent then begin
          let attempt = client.attempt in
          after t (think t) (fun () ->
              if t.running && client.attempt = attempt then initiate t client)
        end);
  }

let start t =
  t.running <- true;
  if not t.started then begin
    t.started <- true;
    Array.iter
      (fun client ->
        if client.handlers == Socket.null_handlers then
          client.handlers <- make_handlers t client;
        initiate t client)
      t.clients
  end

let stop t = t.running <- false
let completed t = t.completed
let refused t = t.refused
let timeouts t = t.timeouts
let response_times t = t.latencies

let response_percentile t frac =
  if Stats.Reservoir.count t.reservoir = 0 then 0.
  else Stats.Reservoir.percentile t.reservoir frac

let reset_stats t =
  t.completed <- 0;
  t.refused <- 0;
  t.timeouts <- 0;
  t.latencies <- Stats.Summary.create ();
  t.reservoir <- Stats.Reservoir.create (Engine.Rng.create ~seed:1)

(* [name] is carried for diagnostics in traces. *)
let _ = fun t -> t.name
