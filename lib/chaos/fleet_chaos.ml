(* Seeded network chaos against a real replica fleet.

   Where {!Chaos} drives the engine in-process (worker kills, torn
   journals, failing appends), this harness spawns genuine [csrtl
   serve --tcp] replica processes sharing one state directory and one
   secret, with the daemon's own CSRTL_SERVE_KILL_NTH knob SIGKILLing
   every 10th worker spawn underneath — then injects the faults only a
   network can deliver:

   - replica SIGKILL mid-campaign: the fleet router must migrate the
     in-flight campaign to a surviving replica and the report must
     stay byte-identical to offline [csrtl inject];
   - connection reset mid-frame (SO_LINGER-0 close of a half-written
     request): the replica must shrug and keep serving;
   - auth-token corruption: a wrong secret must come back as a
     status-1 [serve.auth] refusal, never a crash or a hang;
   - partition-then-heal (SIGSTOP/SIGCONT): probes must eject the
     frozen replica, route around it, and re-admit it after the
     cooloff once it thaws.

   Everything derives from the splitmix64 seed via {!Chaos.Rng}; the
   replica processes are respawned after kills, so the fleet ends the
   run at full strength. *)

module S = Csrtl_serve

type summary = {
  scenarios : int;
  replica_kills : int;  (* SIGKILLed replicas (respawned after) *)
  resets : int;  (* mid-frame connection resets injected *)
  auth_rejects : int;  (* corrupted-secret connects refused *)
  partitions : int;  (* SIGSTOP partitions (healed after) *)
  migrations : int;  (* campaigns that finished on hop > 0 *)
  violations : string list;
}

type replica = {
  port : int;
  ep : S.Endpoint.t;
  mutable pid : int;
}

let free_port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      match Unix.getsockname fd with
      | Unix.ADDR_INET (_, p) -> p
      | _ -> assert false)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* a half request followed by an RST: SO_LINGER with 0 timeout makes
   close send a reset instead of a FIN, so the replica's reader sees a
   hard connection failure mid-frame *)
let reset_mid_frame ep ~secret =
  match S.Client.connect ~secret ep with
  | Error _ -> false
  | Ok conn ->
    (* a raw partial line — no newline — leaves the replica mid-frame
       when the reset lands *)
    ignore (S.Client.send_raw conn "{\"v\":3,\"op\":\"inj");
    S.Client.close_with_reset conn;
    true

let run ?(log = fun _ -> ()) ~csrtl_exe ~seed ~runs ~replicas () =
  if replicas < 2 then invalid_arg "Fleet_chaos.run: need at least 2 replicas";
  let rng = Chaos.Rng.make seed in
  let state_dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "csrtl_fleet_chaos_%d_%d" (Unix.getpid ()) seed)
  in
  rm_rf state_dir;
  let secret = Printf.sprintf "fleet-chaos-secret-%d" seed in
  let secret_file = Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "csrtl_fleet_secret_%d_%d" (Unix.getpid ()) seed)
  in
  let oc = open_out secret_file in
  output_string oc (secret ^ "\n");
  close_out oc;
  let violations = ref [] in
  let violate fmt =
    Printf.ksprintf
      (fun msg ->
        violations := msg :: !violations;
        log ("VIOLATION " ^ msg))
      fmt
  in
  let spawn port =
    Unix.create_process_env csrtl_exe
      [| csrtl_exe; "serve"; "--tcp"; Printf.sprintf "127.0.0.1:%d" port;
         "--secret-file"; secret_file; "--state-dir"; state_dir; "--quiet";
         "--jobs"; "1"; "--max-pending"; "8"; "--isolation"; "forked";
         "--max-restarts"; "5"; "--quarantine-after"; "0";
         "--idle-timeout-ms"; "30000" |]
      (Array.append (Unix.environment ()) [| "CSRTL_SERVE_KILL_NTH=10" |])
      Unix.stdin Unix.stdout Unix.stderr
  in
  let fleet_members =
    List.init replicas (fun _ ->
        let port = free_port () in
        { port; ep = S.Endpoint.Tcp ("127.0.0.1", port); pid = 0 })
  in
  List.iter (fun r -> r.pid <- spawn r.port) fleet_members;
  let eps = List.map (fun r -> r.ep) fleet_members in
  let await_up r =
    match S.Client.connect ~retries:1000 ~delay:0.01 ~secret r.ep with
    | Ok c -> S.Client.close c
    | Error e ->
      failwith (Printf.sprintf "fleet chaos: replica :%d never came up: %s"
                  r.port e)
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun r ->
          (* CONT first in case a partition scenario left it stopped *)
          (try Unix.kill r.pid Sys.sigcont with Unix.Unix_error _ -> ());
          (try Unix.kill r.pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] r.pid) with Unix.Unix_error _ -> ())
        fleet_members;
      (try Sys.remove secret_file with Sys_error _ -> ());
      rm_rf state_dir)
  @@ fun () ->
  List.iter await_up fleet_members;
  log (Printf.sprintf "%d replicas up on ports %s" replicas
         (String.concat "," (List.map (fun r -> string_of_int r.port)
                               fleet_members)));
  (* the oracle: offline inject bytes for each corpus model *)
  let expected_of text =
    match Csrtl_core.Rtm.parse ~file:"<fleet-chaos>" text with
    | Ok (m, _) ->
      Csrtl_fault.Campaign.render_report ~table:false
        (Csrtl_fault.Campaign.run ~engine:`Auto ~batch:32 m)
    | Error _ -> failwith "fleet chaos: corpus model failed to parse"
  in
  let corpus =
    Array.init 3 (fun i ->
        let text =
          Chaos.model_text ~name:(Printf.sprintf "fleet_%d" i)
            ~transfers:(3 + i)
        in
        (text, expected_of text))
  in
  let fleet =
    S.Fleet.create ~secret ~connect_retries:300 ~connect_delay:0.01
      ~eject_threshold:2 ~cooloff_s:0.5 ~log eps
  in
  let replica_kills = ref 0 and resets = ref 0 and auth_rejects = ref 0 in
  let partitions = ref 0 and migrations = ref 0 in
  let inject_req text =
    S.Frame.Inject
      { S.Frame.model = text; engine = `Auto; batch = 32; limit = None;
        budget_ms = None; deadline_ms = None; table = false; stream = false;
        resume = true }
  in
  let campaign ~label text expected =
    match S.Fleet.run fleet (inject_req text) with
    | Error msg -> violate "%s: fleet gave up: %s" label msg
    | Ok { S.Fleet.frame; hops; endpoint; _ } ->
      if hops > 0 then incr migrations;
      (match frame with
       | S.Frame.Report { text = got; _ } ->
         if got <> expected then
           violate "%s: report from %s differs from offline inject" label
             endpoint
       | S.Frame.Drained _ ->
         (* a drain mid-migration is not terminal for the campaign:
            resend once, the journal has the progress *)
         (match S.Fleet.run fleet (inject_req text) with
          | Ok { S.Fleet.frame = S.Frame.Report { text = got; _ }; _ } ->
            if got <> expected then
              violate "%s: resumed report differs from offline inject" label
          | Ok _ | Error _ ->
            violate "%s: campaign never produced a report after drain" label)
       | _ -> violate "%s: terminal frame was not a report" label)
  in
  let ping_all label =
    List.iter
      (fun r ->
        match S.Client.connect ~retries:300 ~delay:0.01 ~secret r.ep with
        | Error e ->
          violate "%s: replica :%d unreachable after scenario: %s" label
            r.port e
        | Ok conn ->
          (match S.Client.send conn S.Frame.Ping with
           | Error e -> violate "%s: replica :%d lost ping: %s" label r.port e
           | Ok () ->
             (match S.Client.next conn with
              | Some (_, Ok (S.Frame.Pong _)) -> ()
              | _ -> violate "%s: replica :%d did not pong" label r.port));
          S.Client.close conn)
      fleet_members
  in
  let scenario i =
    let text, expected = corpus.(Chaos.Rng.int rng (Array.length corpus)) in
    match Chaos.Rng.int rng 4 with
    | 0 ->
      (* replica SIGKILL mid-campaign: fire the campaign on a thread,
         murder a random replica while it runs, then demand identical
         bytes.  The router sees the death as a lost connection and
         migrates via the shared journal. *)
      let label = Printf.sprintf "run %d [replica-kill]" i in
      log label;
      incr replica_kills;
      let victim =
        List.nth fleet_members (Chaos.Rng.int rng (List.length fleet_members))
      in
      let worker =
        Thread.create (fun () -> campaign ~label text expected) ()
      in
      Thread.delay (0.002 *. float_of_int (Chaos.Rng.int rng 10));
      (try Unix.kill victim.pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] victim.pid) with Unix.Unix_error _ -> ());
      Thread.join worker;
      (* respawn so the next scenario faces a full fleet; SO_REUSEADDR
         makes the rebind immediate *)
      victim.pid <- spawn victim.port;
      await_up victim
    | 1 ->
      let label = Printf.sprintf "run %d [reset-mid-frame]" i in
      log label;
      incr resets;
      let r =
        List.nth fleet_members (Chaos.Rng.int rng (List.length fleet_members))
      in
      if not (reset_mid_frame r.ep ~secret) then
        violate "%s: could not even connect to inject the reset" label;
      ping_all label;
      campaign ~label text expected
    | 2 ->
      (* auth corruption: flip a byte of the secret and connect; the
         handshake must answer with a serve.auth refusal and the
         replica must keep serving honest clients *)
      let label = Printf.sprintf "run %d [auth-corruption]" i in
      log label;
      incr auth_rejects;
      let bad = Bytes.of_string secret in
      let k = Chaos.Rng.int rng (Bytes.length bad) in
      Bytes.set bad k (Char.chr (Char.code (Bytes.get bad k) lxor 1));
      let r =
        List.nth fleet_members (Chaos.Rng.int rng (List.length fleet_members))
      in
      (match S.Client.connect ~secret:(Bytes.to_string bad) r.ep with
       | Error e ->
         violate "%s: corrupted-secret connect errored out (%s) instead of \
                  being refused"
           label e
       | Ok conn ->
         (match S.Client.send conn S.Frame.Ping with
          | Error _ -> violate "%s: connection died before the refusal" label
          | Ok () ->
            (match S.Client.next conn with
             | Some
                 ( _,
                   Ok (S.Frame.Refused { status = 1; diags; _ }) )
               when List.exists
                      (fun d -> d.S.Frame.Diag.rule = "serve.auth")
                      diags ->
               ()
             | Some (_, Ok _) | Some (_, Error _) ->
               violate
                 "%s: wrong secret was not refused under serve.auth" label
             | None ->
               (* the daemon may also just close after the refusal
                  frame was lost to the race; treat silence as a
                  violation — the contract is an explicit refusal *)
               violate "%s: no serve.auth refusal before close" label));
         S.Client.close conn);
      ping_all label
    | _ ->
      (* partition-then-heal: freeze a replica with SIGSTOP; probes
         must eject it and campaigns must route around it; after
         SIGCONT and the cooloff it must serve again *)
      let label = Printf.sprintf "run %d [partition-heal]" i in
      log label;
      incr partitions;
      let r =
        List.nth fleet_members (Chaos.Rng.int rng (List.length fleet_members))
      in
      (try Unix.kill r.pid Sys.sigstop with Unix.Unix_error _ -> ());
      ignore (S.Fleet.probe fleet);
      campaign ~label text expected;
      (try Unix.kill r.pid Sys.sigcont with Unix.Unix_error _ -> ());
      Thread.delay 0.6;  (* past the 0.5s cooloff: breaker half-opens *)
      let healthy = S.Fleet.probe fleet in
      let healed =
        List.exists
          (fun (h : S.Fleet.health) ->
            h.endpoint = S.Endpoint.to_string r.ep
            && h.alive && not h.ejected)
          healthy
      in
      if not healed then
        violate "%s: replica :%d not re-admitted after the partition healed"
          label r.port
  in
  (* prime each corpus model once so journals exist and the kill-nth
     counter starts moving *)
  Array.iteri
    (fun i (text, expected) ->
      campaign ~label:(Printf.sprintf "prime %d" i) text expected)
    corpus;
  for i = 0 to runs - 1 do
    scenario i
  done;
  ping_all "final";
  { scenarios = runs; replica_kills = !replica_kills; resets = !resets;
    auth_rejects = !auth_rejects; partitions = !partitions;
    migrations = !migrations; violations = List.rev !violations }
