module Stm = Tm_stm.Stm
module Tel = Tm_telemetry
module Plan = Tm_chaos.Plan
module Runner = Tm_chaos.Runner

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
   by [drain_units] per arrival.  Pure per-domain function of the
   request stream, hence canonical.  Each request of [domain]'s stream
   is [Workload.fill]ed into [buf], then [f] runs on it: the one
   admission loop, which the executors run and [iter_requests]
   replays.  Allocates nothing of its own. *)
let iter_buffer cfg wl ~domain buf ~f =
  let q = ref 0 in
  for index = 0 to cfg.c_ops - 1 do
    let client = ref domain in
    while !client < cfg.c_clients do
      Workload.fill wl buf ~client:!client ~index;
      let drained = !q - drain_units in
      q := if drained > 0 then drained else 0;
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

(* {2 Flat combining} *)

type fc_slot = {
  mutable fc_key : int;
  mutable fc_value : int;
  fc_state : int Atomic.t;  (* 0 empty, 1 pending, 2 applied *)
}

(* One stripe's combiner.  The lock holder drains the pending slots'
   indices into [fc_batch] (highest slot first, [fc_n] of them) and
   runs [fc_body], the stripe's one flush transaction, built here once:
   it writes the batch and journal-marks its size.  The batch changes
   only under [fc_lock], so a re-run of the body after a [Conflict]
   reads the same batch. *)
type fc = {
  fc_lock : bool Atomic.t;
  fc_slots : fc_slot array;
  fc_batch : int array;
  mutable fc_n : int;
  fc_body : unit -> unit;
}

let flush_body store c () =
  for i = 0 to c.fc_n - 1 do
    let s = c.fc_slots.(c.fc_batch.(i)) in
    Store.write_key store s.fc_key s.fc_value
  done;
  Store.journal_mark store c.fc_n

let fc_create store domains =
  let fc_lock = Atomic.make false
  and fc_slots =
    Array.init domains (fun _ ->
        { fc_key = 0; fc_value = 0; fc_state = Atomic.make 0 })
  and fc_batch = Array.make domains 0 in
  let rec c =
    {
      fc_lock;
      fc_slots;
      fc_batch;
      fc_n = 0;
      fc_body = (fun () -> flush_body store c ());
    }
  in
  c

type combiner = {
  cb_store : Store.t;
  cb_domains : int;
  cb_stripes : fc array;
  cb_flushes : Tel.Instrument.counter;
}

let combiner store ~domains =
  if domains < 1 then invalid_arg "Server.combiner: domains < 1";
  {
    cb_store = store;
    cb_domains = domains;
    cb_stripes =
      Array.init (Store.stripes store) (fun _ -> fc_create store domains);
    cb_flushes = Tel.Instrument.counter ();
  }

(* Drain every pending slot into the batch, commit it as one
   transaction, mark it applied. *)
let fc_flush c =
  c.fc_n <- 0;
  for d = Array.length c.fc_slots - 1 downto 0 do
    if Atomic.get c.fc_slots.(d).fc_state = 1 then begin
      c.fc_batch.(c.fc_n) <- d;
      c.fc_n <- c.fc_n + 1
    end
  done;
  Stm.atomically c.fc_body;
  for i = 0 to c.fc_n - 1 do
    Atomic.set c.fc_slots.(c.fc_batch.(i)).fc_state 2
  done

(* Wait for a combiner to apply [slot], or become the combiner: win the
   stripe lock, flush, release.  A waiting owner that finds the lock
   free takes it itself, so nobody waits on a sleeping combiner.  A
   flush that raises releases the lock and leaves its batch pending for
   the next combiner, so its peers do not spin forever. *)
let rec fc_wait cb c slot =
  if Atomic.get slot.fc_state = 2 then Atomic.set slot.fc_state 0
  else if Atomic.compare_and_set c.fc_lock false true then begin
    (try fc_flush c
     with e ->
       Atomic.set c.fc_lock false;
       raise e);
    Atomic.set c.fc_lock false;
    Tel.Instrument.incr cb.cb_flushes;
    Atomic.set slot.fc_state 0
  end
  else begin
    Domain.cpu_relax ();
    fc_wait cb c slot
  end

let fc_put cb d k v =
  let c = cb.cb_stripes.(Store.stripe_of cb.cb_store k) in
  let slot = c.fc_slots.(d) in
  slot.fc_key <- k;
  slot.fc_value <- v;
  Atomic.set slot.fc_state 1;
  fc_wait cb c slot

(* {2 The executor} *)

(* The body closure is built once per executor, not once per request. *)
type executor = {
  x_buf : Store.buffer;
  x_body : unit -> unit;
  x_combiner : combiner option;
  x_slot : int;
}

let executor ?combiner ?(slot = 0) store =
  (match combiner with
  | Some cb when slot < 0 || slot >= cb.cb_domains ->
      invalid_arg "Server.executor: slot out of range"
  | _ -> ());
  let buf = Store.buffer () in
  let body () =
    Store.run store buf;
    if Store.mutates buf then Store.journal_mark store 1
  in
  { x_buf = buf; x_body = body; x_combiner = combiner; x_slot = slot }

let executor_buffer x = x.x_buf
let execute x = Stm.atomically x.x_body

let serve x =
  match x.x_combiner with
  | Some cb when Workload.single_put x.x_buf ->
      fc_put cb x.x_slot (Store.op_key x.x_buf 0) (Store.op_arg x.x_buf 0);
      true
  | _ ->
      execute x;
      false

(* {2 Serving a profile} *)

type lat = { l_kind : string; l_snap : Tm_sim.Hist.t }

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

(* One executor domain's bookkeeping: plain fields that only the owning
   domain writes while it serves, and that [run] reads only after
   joining it (see Bookkeeping and publication in the .mli). *)
type tally = {
  mutable t_requests : int;
  mutable t_admitted : int;
  mutable t_shed : int;
  mutable t_batched : int;
  mutable t_mutators : int;
  t_by_kind : int array;  (* admitted, by [Workload.kind_index] *)
  t_lat : Tm_sim.Hist.t array;  (* per kind, log2 layout *)
}

let tally nkinds =
  {
    t_requests = 0;
    t_admitted = 0;
    t_shed = 0;
    t_batched = 0;
    t_mutators = 0;
    t_by_kind = Array.make nkinds 0;
    t_lat = Array.init nkinds (fun _ -> Tm_sim.Hist.create Tm_sim.Hist.log2);
  }

let run ?on_sample cfg =
  validate cfg;
  Stm.with_algo cfg.c_algo @@ fun () ->
  let store =
    Store.create ~stripes:cfg.c_stripes ~journal:cfg.c_journal
      ~keys:cfg.c_keys ()
  in
  let wl = workload cfg in
  let nd = cfg.c_domains in
  (* Indexed by [Workload.kind_index], in [Workload.kinds] order. *)
  let kinds = Array.of_list Workload.kinds in
  (* Each executor's tally, all zeros until [Domain.join] returns it. *)
  let tallies = Array.make nd (tally (Array.length kinds)) in
  let sum f = Array.fold_left (fun acc t -> acc + f t) 0 tallies in
  (* Canonical registry: deterministic reads only (see .mli). *)
  let reg = Tel.Registry.create () in
  let per name help f =
    for d = 0 to nd - 1 do
      Tel.Registry.counter reg
        ~labels:[ ("domain", string_of_int d) ]
        ~help name
        (fun () -> f tallies.(d))
    done
  in
  per "tm_serve_requests_total" "Requests generated" (fun t -> t.t_requests);
  per "tm_serve_admitted_total" "Requests admitted" (fun t -> t.t_admitted);
  per "tm_serve_shed_total" "Requests shed by admission" (fun t -> t.t_shed);
  per "tm_serve_batched_total" "Admitted puts routed through a combiner"
    (fun t -> t.t_batched);
  per "tm_serve_mutators_total" "Admitted mutating requests" (fun t ->
      t.t_mutators);
  Array.iteri
    (fun k name ->
      Tel.Registry.counter reg
        ~labels:[ ("kind", name) ]
        ~help:"Admitted requests by kind" "tm_serve_admitted_kind_total"
        (fun () -> sum (fun t -> t.t_by_kind.(k))))
    kinds;
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
  let combiner =
    if cfg.c_batching then Some (combiner store ~domains:nd) else None
  in
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
    let x = executor ?combiner ~slot:d store in
    let buf = executor_buffer x in
    let t = tally (Array.length kinds) in
    Atomic.incr ready;
    while Atomic.get go = 0 do
      Domain.cpu_relax ()
    done;
    let t0n = Atomic.get go in
    iter_buffer cfg wl ~domain:d buf ~f:(fun ~client ~index ~admitted:adm ->
        (* The open loop's dispatch stamp (0 in the closed loop). *)
        let dispatched =
          match cur with
          | None -> 0
          | Some c ->
              let g = (index * cfg.c_clients) + client in
              Arrival.skip c (g - !g_prev - 1);
              g_prev := g;
              let at = t0n + Arrival.next c in
              (* Dispatch no earlier than the scheduled arrival; the
                 spin's last clock read is the dispatch stamp. *)
              let now = ref (now_ns ()) in
              while !now < at do
                Domain.cpu_relax ();
                now := now_ns ()
              done;
              (match recorder with
              | Some r when adm -> Tel.Latency_recorder.mark r d ~sched:at
              | _ -> ());
              !now
        in
        t.t_requests <- t.t_requests + 1;
        if not adm then t.t_shed <- t.t_shed + 1
        else begin
          t.t_admitted <- t.t_admitted + 1;
          let kind = Store.kind buf in
          t.t_by_kind.(kind) <- t.t_by_kind.(kind) + 1;
          if Store.mutates buf then t.t_mutators <- t.t_mutators + 1;
          (* Timed: every open-loop request (the recorder needs each),
             and each kind's 1st, 17th, 33rd, ... closed-loop request on
             this executor.  The other closed-loop requests read no
             clock. *)
          match recorder with
          | Some r ->
              if serve x then t.t_batched <- t.t_batched + 1;
              let finish = now_ns () in
              Tm_sim.Hist.add t.t_lat.(kind) (finish - dispatched);
              Tel.Latency_recorder.complete r d ~start:dispatched ~finish
          | None when t.t_by_kind.(kind) land 15 = 1 ->
              let start = now_ns () in
              if serve x then t.t_batched <- t.t_batched + 1;
              Tm_sim.Hist.add t.t_lat.(kind) (now_ns () - start)
          | None -> if serve x then t.t_batched <- t.t_batched + 1
        end);
    t
  in
  let ds = List.init nd (fun d -> Domain.spawn (worker d)) in
  while Atomic.get ready < nd do
    Domain.cpu_relax ()
  done;
  let t0 = Unix.gettimeofday () in
  Atomic.set go (now_ns ());
  (* Publication: the join orders each executor's writes before the
     plain reads of its tally, here and in the final scrape. *)
  List.iteri (fun d dom -> tallies.(d) <- Domain.join dom) ds;
  let wall = Unix.gettimeofday () -. t0 in
  scrape (total_requests cfg);
  let commits1, aborts1 = Stm.stats () in
  (* Measured, non-canonical, never scraped. *)
  let latency k name =
    let merged =
      Array.fold_left
        (fun h t -> Tm_sim.Hist.merge h t.t_lat.(k))
        (Tm_sim.Hist.create Tm_sim.Hist.log2)
        tallies
    in
    { l_kind = name; l_snap = merged }
  in
  let mut_total = sum (fun t -> t.t_mutators) in
  let dump = Store.dump store in
  {
    s_config = cfg;
    s_requests = sum (fun t -> t.t_requests);
    s_admitted = sum (fun t -> t.t_admitted);
    s_shed = sum (fun t -> t.t_shed);
    s_batched = sum (fun t -> t.t_batched);
    s_mutators = mut_total;
    s_by_kind =
      List.mapi
        (fun k name -> (name, sum (fun t -> t.t_by_kind.(k))))
        Workload.kinds;
    s_per_domain =
      Array.map
        (fun t ->
          {
            d_requests = t.t_requests;
            d_admitted = t.t_admitted;
            d_shed = t.t_shed;
            d_batched = t.t_batched;
            d_mutators = t.t_mutators;
          })
        tallies;
    s_journal_ok =
      (not cfg.c_journal) || Store.journal_value store = mut_total;
    s_conserved = counter_plane_sum dump = 0;
    s_store_hash = Store.hash dump;
    s_wall = wall;
    s_commits = commits1 - commits0;
    s_aborts = aborts1 - aborts0;
    s_flushes =
      Option.fold ~none:0
        ~some:(fun cb -> Tel.Instrument.value cb.cb_flushes)
        combiner;
    s_latency = List.mapi latency Workload.kinds;
    s_open =
      Option.map
        (fun r -> Tel.Latency_recorder.summary r ~now:(now_ns ()))
        recorder;
  }

let json = Tm_trace.Export.json_string

let to_json o =
  let cfg = o.s_config in
  let b = Buffer.create 512 in
  Buffer.add_string b
    (Fmt.str
       "{\"subsystem\":\"tmserve\",\"profile\":%s,\"algo\":%s,\"seed\":%d,\"domains\":%d,\"clients\":%d,\"ops_per_client\":%d,\"keys\":%d,\"stripes\":%d,\"batching\":%b,\"journal\":%b,\"queue_cap\":%d,\"arrival\":%s,\"requests\":%d,\"admitted\":%d,\"shed\":%d,\"batched_puts\":%d,\"mutators\":%d,\"journal_ok\":%b,\"conserved\":%b,\"by_kind\":{"
       (json (Workload.profile_name cfg.c_profile))
       (json (Stm.Algo.name cfg.c_algo))
       cfg.c_seed cfg.c_domains cfg.c_clients
       cfg.c_ops cfg.c_keys cfg.c_stripes cfg.c_batching cfg.c_journal
       cfg.c_queue_cap
       (match cfg.c_arrival with
       | None -> "{\"kind\":\"closed\"}"
       | Some a ->
           Fmt.str "{\"kind\":%s,\"rate\":%.1f}"
             (json (Arrival.kind_name (Arrival.kind a)))
             (Arrival.rate a))
       o.s_requests o.s_admitted o.s_shed o.s_batched
       o.s_mutators o.s_journal_ok o.s_conserved);
  List.iteri
    (fun i (k, n) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Fmt.str "%s:%d" (json k) n))
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
  let sampled =
    if Option.is_none cfg.c_arrival then " sampled 1 in 16" else ""
  in
  List.iter
    (fun l ->
      if l.l_snap.count > 0 then
        Fmt.pf ppf "  latency %-4s %a%s@," l.l_kind Tm_sim.Hist.pp l.l_snap
          sampled)
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

(* Each worker serves the same request stream, but cycling its client
   rotation forever (a starving domain never finishes a fixed quota)
   with admission and batching off and the journal marked on {e every}
   request — even a pure get conflicts on the journal, so the
   per-algorithm expectations of the hot-set workload carry over
   verbatim to the serving path. *)
let chaos_workload cfg (plan : Plan.t) =
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
  let store =
    Store.create ~stripes:cfg.c_stripes ~journal:true ~keys:cfg.c_keys ()
  in
  let wl = workload cfg in
  fun d ->
    let buf = Store.buffer () in
    let client = ref d and index = ref 0 in
    {
      Runner.next =
        (fun () ->
          Workload.fill wl buf ~client:!client ~index:!index;
          client := !client + cfg.c_domains;
          if !client >= cfg.c_clients then begin
            client := d;
            index := (!index + 1) mod cfg.c_ops
          end);
      body =
        (fun takeover ->
          Store.run store buf;
          takeover ();
          Store.journal_mark store 1);
    }

let chaos_run ?on_sample plan cfg =
  Runner.run ?on_sample ~workload:(chaos_workload cfg) plan

let pp_chaos_table profile ppf (o : Runner.outcome) =
  Fmt.pf ppf "@[<v>tmserve chaos %s profile=%s algo=%s seed=%d domains=%d@,"
    o.o_plan.Plan.scenario
    (Workload.profile_name profile)
    (Stm.Algo.name o.o_plan.Plan.algo)
    o.o_plan.Plan.seed o.o_plan.Plan.domains;
  List.iter (fun r -> Fmt.pf ppf "%a@," Runner.pp_report r) o.o_reports;
  Fmt.pf ppf "verdict: %s@]"
    (if o.o_ok then "ok (serving path matches the scenario)"
     else "MISMATCH (serving path contradicts the scenario)")

let chaos_to_json profile (o : Runner.outcome) =
  let module Pc = Tm_liveness.Process_class in
  let b = Buffer.create 512 in
  Buffer.add_string b
    (Fmt.str
       "{\"subsystem\":\"tmserve\",\"scenario\":%s,\"profile\":%s,\"algo\":%s,\"seed\":%d,\"domains\":%d,\"ok\":%b,\"verdicts\":["
       (json o.o_plan.Plan.scenario)
       (json (Workload.profile_name profile))
       (json (Stm.Algo.name o.o_plan.Plan.algo))
       o.o_plan.Plan.seed o.o_plan.Plan.domains o.o_ok);
  List.iteri
    (fun i (r : Runner.report) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Fmt.str
           "{\"domain\":%d,\"fault\":%s,\"expected\":%s,\"observed\":%s,\"ok\":%b,\"crashed\":%b}"
           r.rep_domain
           (json (Plan.fault_label r.rep_fault))
           (json (Pc.cls_label r.rep_expected))
           (json (Pc.cls_label r.rep_observed))
           (Runner.report_ok r) r.rep_crashed))
    o.o_reports;
  Buffer.add_string b "]}";
  Buffer.contents b
