module Stm = Tm_stm.Stm
module Tel = Tm_telemetry
module Plan = Tm_chaos.Plan
module Runner = Tm_chaos.Runner
module Emp = Tm_liveness.Empirical

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let drain_units = 12

type config = {
  c_profile : Workload.profile;
  c_algo : Stm.Algo.t;
  c_seed : int;
  c_domains : int;
  c_clients : int;
  c_ops : int;
  c_keys : int;
  c_stripes : int;
  c_batching : bool;
  c_journal : bool;
  c_queue_cap : int;
  c_arrival : Arrival.t option;
      (* open-loop arrival clock; None = closed loop *)
}

let validate cfg =
  if cfg.c_domains < 1 then invalid_arg "Server.config: domains < 1";
  if cfg.c_clients < cfg.c_domains then
    invalid_arg "Server.config: clients < domains";
  if cfg.c_ops < 1 then invalid_arg "Server.config: ops < 1";
  if cfg.c_keys < 4 then invalid_arg "Server.config: keys < 4";
  if cfg.c_queue_cap < 1 then invalid_arg "Server.config: queue_cap < 1"

let config ?(algo = Stm.Algo.Tl2) ?(clients = 10_000) ?(ops = 4)
    ?(keys = 1024) ?(stripes = 64) ?(batching = true) ?(journal = false)
    ?(queue_cap = 2048) ?arrival ~profile ~seed ~domains () =
  let cfg =
    {
      c_profile = profile;
      c_algo = algo;
      c_seed = seed;
      c_domains = domains;
      c_clients = clients;
      c_ops = ops;
      c_keys = keys;
      c_stripes = stripes;
      c_batching = batching;
      c_journal = journal;
      c_queue_cap = queue_cap;
      c_arrival = arrival;
    }
  in
  validate cfg;
  cfg

let workload cfg =
  Workload.create ~profile:cfg.c_profile ~seed:cfg.c_seed ~keys:cfg.c_keys ()

let total_requests cfg = cfg.c_clients * cfg.c_ops

(* The admission model: a virtual bounded queue in cost units, drained
   at a fixed rate per arrival.  Pure per-domain function of the request
   stream, hence canonical. *)
let iter_buffer cfg wl ~domain buf ~f =
  let q = ref 0 in
  for index = 0 to cfg.c_ops - 1 do
    let client = ref domain in
    while !client < cfg.c_clients do
      Workload.fill wl buf ~client:!client ~index;
      q := max 0 (!q - drain_units);
      let cost = Store.cost buf in
      let admitted = !q + cost <= cfg.c_queue_cap in
      if admitted then q := !q + cost;
      f ~client:!client ~index ~admitted;
      client := !client + cfg.c_domains
    done
  done

let iter_requests cfg wl ~domain ~f =
  let buf = Store.buffer () in
  iter_buffer cfg wl ~domain buf ~f:(fun ~client ~index ~admitted ->
      f ~client ~index (Workload.view buf) ~admitted)

(* {2 The executor} *)

(* The body closure is built once per executor, not once per request. *)
type executor = { x_buf : Store.buffer; x_body : unit -> unit }

let executor store =
  let buf = Store.buffer () in
  let body () =
    Store.run store buf;
    if Store.mutates buf then Store.journal_mark store 1
  in
  { x_buf = buf; x_body = body }

let executor_buffer x = x.x_buf
let execute x = Stm.atomically x.x_body

(* {2 Flat combining} *)

type fc_slot = {
  mutable fc_key : int;
  mutable fc_value : int;
  fc_state : int Atomic.t;  (* 0 empty, 1 pending, 2 applied *)
}

type fc = { fc_lock : bool Atomic.t; fc_slots : fc_slot array }

let fc_create ~stripes ~domains =
  Array.init stripes (fun _ ->
      {
        fc_lock = Atomic.make false;
        fc_slots =
          Array.init domains (fun _ ->
              { fc_key = 0; fc_value = 0; fc_state = Atomic.make 0 });
      })

(* Publish the put in this domain's slot, then either observe a
   combiner apply it or become the combiner: win the stripe lock, drain
   every pending slot into one transaction (journal-marked with the
   batch size, so journal accounting is per-request), release.  A
   waiting owner that finds the lock free takes it itself, so nobody
   waits on a sleeping combiner. *)
let fc_put combs store ~flushes d k v =
  let comb = combs.(Store.stripe_of store k) in
  let slot = comb.fc_slots.(d) in
  slot.fc_key <- k;
  slot.fc_value <- v;
  Atomic.set slot.fc_state 1;
  let rec wait () =
    if Atomic.get slot.fc_state = 2 then Atomic.set slot.fc_state 0
    else if Atomic.compare_and_set comb.fc_lock false true then begin
      let pending =
        Array.fold_left
          (fun acc s -> if Atomic.get s.fc_state = 1 then s :: acc else acc)
          [] comb.fc_slots
      in
      Stm.atomically (fun () ->
          List.iter (fun s -> Store.write_key store s.fc_key s.fc_value) pending;
          Store.journal_mark store (List.length pending));
      List.iter (fun s -> Atomic.set s.fc_state 2) pending;
      Atomic.set comb.fc_lock false;
      Tel.Instrument.incr flushes;
      Atomic.set slot.fc_state 0
    end
    else begin
      Domain.cpu_relax ();
      wait ()
    end
  in
  wait ()

(* {2 Serving a profile} *)

type lat = { l_kind : string; l_snap : Tel.Instrument.hsnap }

type per_domain = {
  d_requests : int;
  d_admitted : int;
  d_shed : int;
  d_batched : int;
  d_mutators : int;
}

type outcome = {
  s_config : config;
  s_requests : int;
  s_admitted : int;
  s_shed : int;
  s_batched : int;
  s_mutators : int;
  s_by_kind : (string * int) list;
  s_per_domain : per_domain array;
  s_journal_ok : bool;
  s_conserved : bool;
  s_store_hash : int;
  s_wall : float;
  s_commits : int;
  s_aborts : int;
  s_flushes : int;
  s_latency : lat list;
  s_open : Tel.Latency_recorder.summary option;
      (* open-loop latency: present iff the run had an arrival clock *)
}

let counter_plane_sum dump =
  let acc = ref 0 in
  Array.iteri (fun k v -> if k land 1 = 1 then acc := !acc + v) dump;
  !acc

let run ?on_sample cfg =
  validate cfg;
  Stm.with_algo cfg.c_algo @@ fun () ->
  let store =
    Store.create ~stripes:cfg.c_stripes ~journal:cfg.c_journal
      ~keys:cfg.c_keys ()
  in
  let wl = workload cfg in
  let nd = cfg.c_domains in
  (* Canonical registry: deterministic instruments only (see .mli). *)
  let reg = Tel.Registry.create () in
  let per name help =
    Array.init nd (fun d ->
        Tel.Registry.counter reg ~shards:1
          ~labels:[ ("domain", string_of_int d) ]
          ~help name)
  in
  let requests = per "tm_serve_requests_total" "Requests generated" in
  let admitted = per "tm_serve_admitted_total" "Requests admitted" in
  let shed = per "tm_serve_shed_total" "Requests shed by admission" in
  let batched =
    per "tm_serve_batched_total" "Admitted puts routed through a combiner"
  in
  let mutators = per "tm_serve_mutators_total" "Admitted mutating requests" in
  (* Indexed by [Workload.kind_index], in [Workload.kinds] order. *)
  let kinds = Array.of_list Workload.kinds in
  let by_kind =
    Array.map
      (fun k ->
        Tel.Registry.counter reg
          ~labels:[ ("kind", k) ]
          ~help:"Admitted requests by kind" "tm_serve_admitted_kind_total")
      kinds
  in
  (* Measured, non-canonical: bare instruments, never scraped. *)
  let lat = Array.map (fun _ -> Tel.Instrument.histogram ()) kinds in
  let flushes = Tel.Instrument.counter () in
  (* The open-loop recorder is registry-free on purpose: its samples are
     wall-clock measurements, and the canonical scrape must not see
     them. *)
  let recorder =
    Option.map
      (fun a ->
        Tel.Latency_recorder.create ~interval_ns:(Arrival.period_ns a)
          ~domains:nd ())
      cfg.c_arrival
  in
  let combs = fc_create ~stripes:(Store.stripes store) ~domains:nd in
  let scrape ts =
    match on_sample with
    | Some f -> f (Tel.Registry.scrape reg ~ts)
    | None -> ()
  in
  let commits0, aborts0 = Stm.stats () in
  scrape 0;
  (* Start barrier: the arrival epoch opens when every executor is
     spawned and ready, so domain-spawn latency (milliseconds) does not
     masquerade as queueing delay in the open-loop measurements. *)
  let ready = Atomic.make 0 in
  let go = Atomic.make 0 in
  let worker d () =
    (* Open-loop pacing state: a per-domain arrival cursor walked in
       global-index order (the schedule is a pure function of the index,
       so every domain count derives the same arrival times). *)
    let cur = Option.map Arrival.cursor cfg.c_arrival in
    let g_prev = ref (-1) in
    let x = executor store in
    let buf = executor_buffer x in
    Atomic.incr ready;
    while Atomic.get go = 0 do
      Domain.cpu_relax ()
    done;
    let t0n = Atomic.get go in
    iter_buffer cfg wl ~domain:d buf ~f:(fun ~client ~index ~admitted:adm ->
        let sched =
          match cur with
          | None -> t0n
          | Some c ->
              let g = (index * cfg.c_clients) + client in
              Arrival.skip c (g - !g_prev - 1);
              g_prev := g;
              let at = t0n + Arrival.next c in
              (* dispatch no earlier than the scheduled arrival *)
              while now_ns () < at do
                Domain.cpu_relax ()
              done;
              at
        in
        Tel.Instrument.incr requests.(d);
        if not adm then Tel.Instrument.incr shed.(d)
        else begin
          Tel.Instrument.incr admitted.(d);
          let kind = Store.kind buf in
          Tel.Instrument.incr by_kind.(kind);
          if Store.mutates buf then Tel.Instrument.incr mutators.(d);
          (match recorder with
          | Some r -> Tel.Latency_recorder.mark r d ~sched
          | None -> ());
          let start = now_ns () in
          if cfg.c_batching && Workload.single_put buf then begin
            Tel.Instrument.incr batched.(d);
            fc_put combs store ~flushes d (Store.op_key buf 0)
              (Store.op_arg buf 0)
          end
          else execute x;
          let finish = now_ns () in
          Tel.Instrument.observe lat.(kind) (finish - start);
          match recorder with
          | Some r -> Tel.Latency_recorder.complete r d ~start ~finish
          | None -> ()
        end)
  in
  let ds = List.init nd (fun d -> Domain.spawn (worker d)) in
  while Atomic.get ready < nd do
    Domain.cpu_relax ()
  done;
  let t0 = Unix.gettimeofday () in
  Atomic.set go (now_ns ());
  List.iter Domain.join ds;
  let wall = Unix.gettimeofday () -. t0 in
  scrape (total_requests cfg);
  let commits1, aborts1 = Stm.stats () in
  let v a d = Tel.Instrument.value a.(d) in
  let sum a = Array.fold_left (fun acc c -> acc + Tel.Instrument.value c) 0 a in
  let mut_total = sum mutators in
  let dump = Store.dump store in
  {
    s_config = cfg;
    s_requests = sum requests;
    s_admitted = sum admitted;
    s_shed = sum shed;
    s_batched = sum batched;
    s_mutators = mut_total;
    s_by_kind =
      Array.to_list
        (Array.map2 (fun k c -> (k, Tel.Instrument.value c)) kinds by_kind);
    s_per_domain =
      Array.init nd (fun d ->
          {
            d_requests = v requests d;
            d_admitted = v admitted d;
            d_shed = v shed d;
            d_batched = v batched d;
            d_mutators = v mutators d;
          });
    s_journal_ok =
      (not cfg.c_journal) || Store.journal_value store = mut_total;
    s_conserved = counter_plane_sum dump = 0;
    s_store_hash = Store.hash dump;
    s_wall = wall;
    s_commits = commits1 - commits0;
    s_aborts = aborts1 - aborts0;
    s_flushes = Tel.Instrument.value flushes;
    s_latency =
      Array.to_list
        (Array.map2
           (fun k h -> { l_kind = k; l_snap = Tel.Instrument.hist_snapshot h })
           kinds lat);
    s_open =
      Option.map
        (fun r -> Tel.Latency_recorder.summary r ~now:(now_ns ()))
        recorder;
  }

let to_json o =
  let cfg = o.s_config in
  let b = Buffer.create 512 in
  Buffer.add_string b
    (Fmt.str
       "{\"subsystem\":\"tmserve\",\"profile\":%S,\"algo\":%S,\"seed\":%d,\"domains\":%d,\"clients\":%d,\"ops_per_client\":%d,\"keys\":%d,\"stripes\":%d,\"batching\":%b,\"journal\":%b,\"queue_cap\":%d,\"arrival\":%s,\"requests\":%d,\"admitted\":%d,\"shed\":%d,\"batched_puts\":%d,\"mutators\":%d,\"journal_ok\":%b,\"conserved\":%b,\"by_kind\":{"
       (Workload.profile_name cfg.c_profile)
       (Stm.Algo.name cfg.c_algo) cfg.c_seed cfg.c_domains cfg.c_clients
       cfg.c_ops cfg.c_keys cfg.c_stripes cfg.c_batching cfg.c_journal
       cfg.c_queue_cap
       (match cfg.c_arrival with
       | None -> "{\"kind\":\"closed\"}"
       | Some a ->
           Fmt.str "{\"kind\":%S,\"rate\":%.1f}"
             (Arrival.kind_name (Arrival.kind a))
             (Arrival.rate a))
       o.s_requests o.s_admitted o.s_shed o.s_batched
       o.s_mutators o.s_journal_ok o.s_conserved);
  List.iteri
    (fun i (k, n) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Fmt.str "%S:%d" k n))
    o.s_by_kind;
  Buffer.add_string b "},\"per_domain\":[";
  Array.iteri
    (fun d pd ->
      if d > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Fmt.str
           "{\"domain\":%d,\"requests\":%d,\"admitted\":%d,\"shed\":%d,\"batched\":%d,\"mutators\":%d}"
           d pd.d_requests pd.d_admitted pd.d_shed pd.d_batched pd.d_mutators))
    o.s_per_domain;
  Buffer.add_string b "]}";
  Buffer.contents b

let pp_summary ppf o =
  let cfg = o.s_config in
  Fmt.pf ppf
    "@[<v>tmserve profile=%s algo=%s domains=%d seed=%d clients=%d \
     ops/client=%d batching=%b journal=%b@,"
    (Workload.profile_name cfg.c_profile)
    (Stm.Algo.name cfg.c_algo) cfg.c_domains cfg.c_seed cfg.c_clients
    cfg.c_ops cfg.c_batching cfg.c_journal;
  Fmt.pf ppf
    "requests %d: admitted %d, shed %d (batched puts %d, mutators %d)@,"
    o.s_requests o.s_admitted o.s_shed o.s_batched o.s_mutators;
  List.iter
    (fun (k, n) -> if n > 0 then Fmt.pf ppf "  admitted %-4s %d@," k n)
    o.s_by_kind;
  Fmt.pf ppf
    "measured: wall %.3fs, %.0f adm/s, commits %d, aborts %d, flushes %d@,"
    o.s_wall
    (float_of_int o.s_admitted /. Float.max 1e-9 o.s_wall)
    o.s_commits o.s_aborts o.s_flushes;
  List.iter
    (fun l ->
      if l.l_snap.Tel.Instrument.count > 0 then
        Fmt.pf ppf "  latency %-4s %a@," l.l_kind Tel.Instrument.pp_hsnap
          l.l_snap)
    o.s_latency;
  (match (o.s_config.c_arrival, o.s_open) with
  | Some a, Some y ->
      Fmt.pf ppf "arrival %s rate %.0f req/s (open loop)@,%a@,"
        (Arrival.kind_name (Arrival.kind a))
        (Arrival.rate a) Tel.Latency_recorder.pp_summary y
  | _ -> ());
  Fmt.pf ppf "journal %s, counter plane %s@]"
    (if o.s_journal_ok then "ok" else "MISMATCH")
    (if o.s_conserved then "conserved" else "VIOLATED")

(* {2 Chaos against the serving path} *)

type session = {
  k_plan : Plan.t;
  k_config : config;
  k_registry : Tel.Registry.t;
  k_liveness : Tel.Liveness_gauge.t;
  k_blame : Tel.Blame_graph.t option;
  k_ops : Tel.Instrument.counter array;
  k_attempts : Tel.Instrument.counter array;
  k_trycs : Tel.Instrument.counter array;
  k_commits : Tel.Instrument.counter array;
  k_crashed : Tel.Instrument.gauge array;
  k_latency : Tel.Latency_recorder.t option;
}

let session_plan s = s.k_plan
let session_config s = s.k_config
let session_registry s = s.k_registry
let session_liveness s = s.k_liveness
let session_blame s = s.k_blame
let session_latency s = s.k_latency

let session_sample s d =
  let v a = Tel.Instrument.value a.(d) in
  let attempts = v s.k_attempts in
  let commits = v s.k_commits in
  {
    Runner.ops = v s.k_ops;
    trycs = v s.k_trycs;
    commits;
    aborts = max 0 (attempts - commits);
  }

let session_samples s = Array.init s.k_plan.Plan.domains (session_sample s)

exception Stop_worker

(* The chaos executor serves the same request stream, but cycling its
   client rotation forever (a starving domain never finishes a fixed
   quota) with admission and batching off and the journal marked on
   {e every} request — even a pure get conflicts on the journal, so the
   per-algorithm expectations of the shared-hot-t-variable chaos runner
   carry over verbatim to the serving path.  Parasite takeover mirrors
   {!Tm_chaos.Runner}: a private-read spin under the non-blocking
   cores, an in-body takeover under the global-lock serializer. *)
let chaos_worker ~stop ~cfg ~wl ~store ~mine ~fault ~parasite_gate ~ops
    ~injected ~attempts ~trycs ~commits ~crashed ~lat d () =
  Runner.bind_fault fault ~ops ~injected;
  Stm.Obs.set_self d;
  let parasitic_from =
    match fault with Plan.Parasitic { from_op } -> Some from_op | _ -> None
  in
  let parasitic_now () =
    match parasitic_from with
    | Some from -> parasite_gate () && Tel.Instrument.value ops >= from
    | None -> false
  in
  let parasite_spin () =
    while true do
      ignore (Stm.read mine);
      if Atomic.get stop then raise Stop_worker;
      Domain.cpu_relax ()
    done
  in
  let in_body_takeover = cfg.c_algo = Stm.Algo.Global_lock in
  (* The chaos path is its own load generator, so "scheduled arrival" is
     the moment a request starts; the slot deliberately stays marked if
     the body dies on [Stm.Obs.Crashed] — a dead domain's in-flight
     request is exactly the censored sample the open-loop quantiles must
     keep seeing grow. *)
  let mark () =
    let sched = Tel.Latency_recorder.now_ns () in
    Option.iter (fun r -> Tel.Latency_recorder.mark r d ~sched) lat;
    sched
  in
  let complete sched =
    Option.iter
      (fun r ->
        Tel.Latency_recorder.complete r d ~start:sched
          ~finish:(Tel.Latency_recorder.now_ns ()))
      lat
  in
  let buf = Store.buffer () in
  let body () =
    if Atomic.get stop then raise Stop_worker;
    Tel.Instrument.incr attempts;
    Store.run store buf;
    if in_body_takeover && parasitic_now () then parasite_spin ();
    Store.journal_mark store 1;
    Tel.Instrument.incr trycs
  in
  let client = ref d and index = ref 0 in
  (try
     while not (Atomic.get stop) do
       if (not in_body_takeover) && parasitic_now () then begin
         ignore (mark ());
         Stm.atomically (fun () ->
             Tel.Instrument.incr attempts;
             parasite_spin ())
       end
       else begin
         Workload.fill wl buf ~client:!client ~index:!index;
         let sched = mark () in
         Stm.atomically body;
         Tel.Instrument.incr commits;
         complete sched;
         client := !client + cfg.c_domains;
         if !client >= cfg.c_clients then begin
           client := d;
           index := (!index + 1) mod cfg.c_ops
         end
       end
     done
   with
  | Stop_worker -> ()
  | Stm.Obs.Crashed -> Tel.Instrument.set_gauge crashed 1);
  Stm.Obs.set_self (-1);
  Runner.unbind_fault ()

let with_chaos_session ?(blame = false) ?(latency = false) ?registry
    (plan : Plan.t) cfg f =
  let cfg =
    {
      cfg with
      c_algo = plan.Plan.algo;
      c_domains = plan.Plan.domains;
      c_batching = false;
      c_journal = true;
      c_clients = max cfg.c_clients plan.Plan.domains;
    }
  in
  validate cfg;
  let nd = cfg.c_domains in
  let reg =
    match registry with Some r -> r | None -> Tel.Registry.create ()
  in
  let per name help =
    Array.init nd (fun d ->
        Tel.Registry.counter reg ~shards:1
          ~labels:[ ("domain", string_of_int d) ]
          ~help name)
  in
  let ops =
    per "tm_serve_ops_total"
      "Interception-point firings (the executor's operation clock)"
  in
  let attempts = per "tm_serve_attempts_total" "Request attempts started" in
  let trycs = per "tm_serve_trycs_total" "Request bodies that reached tryC" in
  let commits = per "tm_serve_commits_total" "Requests committed" in
  let injected =
    per "tm_serve_injected_total" "Faults injected (non-Proceed actions)"
  in
  let crashed =
    Array.init nd (fun d ->
        Tel.Registry.gauge reg
          ~labels:[ ("domain", string_of_int d) ]
          ~help:"1 after the executor died on Stm.Obs.Crashed"
          "tm_serve_crashed")
  in
  let sources =
    Array.init nd (fun d ->
        Tel.Liveness_gauge.source
          ~ops:(fun () -> Tel.Instrument.value ops.(d))
          ~trycs:(fun () -> Tel.Instrument.value trycs.(d))
          ~commits:(fun () -> Tel.Instrument.value commits.(d))
          ~aborts:(fun () ->
            max 0
              (Tel.Instrument.value attempts.(d)
              - Tel.Instrument.value commits.(d))))
  in
  let liveness = Tel.Liveness_gauge.create reg ~sources in
  let blame_graph =
    if blame then Some (Tel.Blame_graph.create reg ~domains:nd) else None
  in
  (* The chaos executor is an unthrottled generator, so the expected
     inter-arrival for the coordinated-omission correction is the
     request service time scale (~50us), not a wall-clock rate. *)
  let lat =
    if latency then
      Some
        (Tel.Latency_recorder.create ~registry:reg ~metric:"tm_serve_lat"
           ~interval_ns:50_000 ~domains:nd ())
    else None
  in
  let ses =
    {
      k_plan = plan;
      k_config = cfg;
      k_registry = reg;
      k_liveness = liveness;
      k_blame = blame_graph;
      k_ops = ops;
      k_attempts = attempts;
      k_trycs = trycs;
      k_commits = commits;
      k_crashed = crashed;
      k_latency = lat;
    }
  in
  let prev_algo = Stm.algo () in
  Stm.set_algo plan.Plan.algo;
  let store =
    Store.create ~stripes:cfg.c_stripes ~journal:true ~keys:cfg.c_keys ()
  in
  let wl = workload cfg in
  let priv = Array.init nd (fun _ -> Stm.tvar 0) in
  let stop = Atomic.make false in
  (* Mixed crash+parasite plans are causal: the parasite waits for the
     crasher to have died (see Tm_chaos.Runner). *)
  let parasite_gate =
    match
      Array.to_list plan.Plan.faults
      |> List.mapi (fun d fl -> (d, fl))
      |> List.find_map (fun (d, fl) ->
             match fl with Plan.Crash _ -> Some d | _ -> None)
    with
    | None -> fun () -> true
    | Some cd -> fun () -> Tel.Instrument.gauge_value crashed.(cd) = 1
  in
  let subs =
    Stm.Obs.subscribe Runner.fault_handler
    :: Option.fold ~none:[]
         ~some:(fun g -> [ Stm.Obs.subscribe (Tel.Blame_graph.subscriber g) ])
         blame_graph
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter Stm.Obs.unsubscribe subs;
      Stm.recover ();
      Stm.set_algo prev_algo)
    (fun () ->
      let ds =
        List.init nd (fun d ->
            Domain.spawn
              (chaos_worker ~stop ~cfg ~wl ~store ~mine:priv.(d)
                 ~fault:plan.Plan.faults.(d) ~parasite_gate ~ops:ops.(d)
                 ~injected:injected.(d) ~attempts:attempts.(d)
                 ~trycs:trycs.(d) ~commits:commits.(d) ~crashed:crashed.(d)
                 ~lat d))
      in
      let finish () =
        Atomic.set stop true;
        List.iter Domain.join ds
      in
      match f ses with
      | v ->
          finish ();
          v
      | exception e ->
          finish ();
          raise e)

type chaos_outcome = {
  k_plan : Plan.t;
  k_profile : Workload.profile;
  k_reports : Runner.report list;
  k_ok : bool;
}

let counters_of (s : Runner.sample) =
  Emp.counters ~ops:s.Runner.ops ~trycs:s.Runner.trycs
    ~commits:s.Runner.commits ~aborts:s.Runner.aborts

let chaos_run ?blame ?latency ?(warmup = 0.05) ?(window = 0.15) ?registry
    ?on_sample (plan : Plan.t) cfg =
  let nd = plan.Plan.domains in
  let scrape ses ts =
    match on_sample with
    | Some f ->
        Option.iter Tel.Blame_graph.refresh ses.k_blame;
        Option.iter
          (fun r ->
            Tel.Latency_recorder.publish r
              ~now:(Tel.Latency_recorder.now_ns ()))
          ses.k_latency;
        f (Tel.Registry.scrape ses.k_registry ~ts)
    | None -> ()
  in
  let first, last, ses =
    with_chaos_session ?blame ?latency ?registry plan cfg (fun ses ->
        Unix.sleepf warmup;
        let first = session_samples ses in
        Tel.Liveness_gauge.rebase_with ses.k_liveness
          (Array.map counters_of first);
        scrape ses 0;
        Unix.sleepf window;
        let last = session_samples ses in
        ignore
          (Tel.Liveness_gauge.update_with ses.k_liveness
             (Array.map counters_of last));
        scrape ses 1;
        (first, last, ses))
  in
  let reports =
    List.init nd (fun d ->
        {
          Runner.rep_domain = d;
          rep_fault = plan.Plan.faults.(d);
          rep_expected = plan.Plan.expected.(d);
          rep_observed =
            Emp.classify_counters ~first:(counters_of first.(d))
              ~last:(counters_of last.(d));
          rep_first = first.(d);
          rep_last = last.(d);
          rep_crashed = Tel.Instrument.gauge_value ses.k_crashed.(d) = 1;
        })
  in
  {
    k_plan = plan;
    k_profile = cfg.c_profile;
    k_reports = reports;
    k_ok = List.for_all Runner.report_ok reports;
  }

let pp_chaos_table ppf o =
  Fmt.pf ppf "@[<v>tmserve chaos %s profile=%s algo=%s seed=%d domains=%d@,"
    o.k_plan.Plan.scenario
    (Workload.profile_name o.k_profile)
    (Stm.Algo.name o.k_plan.Plan.algo)
    o.k_plan.Plan.seed o.k_plan.Plan.domains;
  List.iter (fun r -> Fmt.pf ppf "%a@," Runner.pp_report r) o.k_reports;
  Fmt.pf ppf "verdict: %s@]"
    (if o.k_ok then "ok (serving path matches the scenario)"
     else "MISMATCH (serving path contradicts the scenario)")

let chaos_to_json o =
  let module Pc = Tm_liveness.Process_class in
  let b = Buffer.create 512 in
  Buffer.add_string b
    (Fmt.str
       "{\"subsystem\":\"tmserve\",\"scenario\":%S,\"profile\":%S,\"algo\":%S,\"seed\":%d,\"domains\":%d,\"ok\":%b,\"verdicts\":["
       o.k_plan.Plan.scenario
       (Workload.profile_name o.k_profile)
       (Stm.Algo.name o.k_plan.Plan.algo)
       o.k_plan.Plan.seed o.k_plan.Plan.domains o.k_ok);
  List.iteri
    (fun i (r : Runner.report) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Fmt.str
           "{\"domain\":%d,\"fault\":%S,\"expected\":%S,\"observed\":%S,\"ok\":%b,\"crashed\":%b}"
           r.Runner.rep_domain
           (Plan.fault_label r.Runner.rep_fault)
           (Pc.cls_label r.Runner.rep_expected)
           (Pc.cls_label r.Runner.rep_observed)
           (Runner.report_ok r) r.Runner.rep_crashed))
    o.k_reports;
  Buffer.add_string b "]}";
  Buffer.contents b
