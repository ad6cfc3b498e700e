(* Tests for the struct-of-arrays hot state: QCheck lockstep of the
   arena-backed [Usage] against the record-based [Usage_ref] executable
   spec, including the saturate-vs-raise negative-memory rule. *)

module Simtime = Engine.Simtime
module Usage = Rescont.Usage
module Usage_ref = Spec.Usage_ref

(* {1 Usage arena vs record spec} *)

let prop_usage_lockstep =
  QCheck2.Test.make ~name:"usage arena lockstep with record spec" ~count:300
    QCheck2.Gen.(list_size (int_range 1 80) (triple (int_bound 6) (int_bound 9) (int_bound 997)))
    (fun ops ->
      let arena = Usage.create_arena () in
      let u = Usage.create arena in
      let r = Usage_ref.create () in
      let agree what a b =
        if a <> b then QCheck2.Test.fail_reportf "%s: arena %d, spec %d" what a b
      in
      List.iter
        (fun (op, a, b) ->
          (match op with
          | 0 ->
              let kernel = a land 1 = 1 in
              let span = Simtime.span_of_ns b in
              Usage.charge_cpu u ~kernel span;
              Usage_ref.charge_cpu r ~kernel span
          | 1 ->
              Usage.charge_rx u ~packets:a ~bytes:b;
              Usage_ref.charge_rx r ~packets:a ~bytes:b
          | 2 ->
              Usage.charge_tx u ~packets:a ~bytes:b;
              Usage_ref.charge_tx r ~packets:a ~bytes:b
          | 3 ->
              (* Mixed-sign deltas probe the negative-memory rule; the two
                 implementations must agree on saturate vs raise and on
                 the exception payload. *)
              let delta = b - 400 in
              let strict = a land 1 = 1 in
              Usage.set_strict arena strict;
              let outcome_u =
                try
                  Usage.charge_memory u delta;
                  None
                with Usage.Negative_memory { have; delta } -> Some (have, delta)
              in
              let outcome_r =
                try
                  Usage_ref.charge_memory r ~strict delta;
                  None
                with Usage_ref.Negative_memory { have; delta } -> Some (have, delta)
              in
              if outcome_u <> outcome_r then
                QCheck2.Test.fail_reportf "negative-memory rule disagrees (delta %d, strict %b)"
                  delta strict
          | 4 ->
              let span = Simtime.span_of_ns (10 * a) in
              Usage.charge_disk u ~bytes:b span;
              Usage_ref.charge_disk r ~bytes:b span
          | 5 ->
              if a land 1 = 1 then begin
                Usage.incr_kernel_objects u;
                Usage_ref.incr_kernel_objects r
              end
              else begin
                Usage.decr_kernel_objects u;
                Usage_ref.decr_kernel_objects r
              end
          | _ ->
              Usage.reset u;
              Usage_ref.reset r);
          agree "cpu_user"
            (Simtime.span_to_ns (Usage.cpu_user u))
            (Simtime.span_to_ns (Usage_ref.cpu_user r));
          agree "cpu_kernel"
            (Simtime.span_to_ns (Usage.cpu_kernel u))
            (Simtime.span_to_ns (Usage_ref.cpu_kernel r));
          agree "cpu_total"
            (Simtime.span_to_ns (Usage.cpu_total u))
            (Simtime.span_to_ns (Usage_ref.cpu_total r));
          (* The allocation-free scalar readers must agree with the spec's
             span-based accessors. *)
          agree "cpu_ns scalar" (Usage.cpu_ns u) (Simtime.span_to_ns (Usage_ref.cpu_total r));
          agree "cpu_user_ns scalar" (Usage.cpu_user_ns u)
            (Simtime.span_to_ns (Usage_ref.cpu_user r));
          agree "cpu_kernel_ns scalar" (Usage.cpu_kernel_ns u)
            (Simtime.span_to_ns (Usage_ref.cpu_kernel r));
          agree "rx_packets" (Usage.rx_packets u) (Usage_ref.rx_packets r);
          agree "rx_bytes" (Usage.rx_bytes u) (Usage_ref.rx_bytes r);
          agree "tx_packets" (Usage.tx_packets u) (Usage_ref.tx_packets r);
          agree "tx_bytes" (Usage.tx_bytes u) (Usage_ref.tx_bytes r);
          agree "memory_bytes" (Usage.memory_bytes u) (Usage_ref.memory_bytes r);
          agree "mem_bytes scalar" (Usage.mem_bytes u) (Usage_ref.memory_bytes r);
          agree "kernel_objects" (Usage.kernel_objects u) (Usage_ref.kernel_objects r);
          agree "disk_reads" (Usage.disk_reads u) (Usage_ref.disk_reads r);
          agree "disk_bytes" (Usage.disk_bytes u) (Usage_ref.disk_bytes r);
          agree "disk_ns scalar" (Usage.disk_ns u) (Simtime.span_to_ns (Usage_ref.disk_time r)))
        ops;
      true)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_usage_lockstep;
  ]
