package ctlplane

import "testing"

// FuzzDecodeWALRecord drives the record parser with arbitrary frame
// payloads: it must never panic, and anything it accepts must carry a
// known record type (the replay switch depends on it).
func FuzzDecodeWALRecord(f *testing.F) {
	seed := func(seq uint64, typ byte, body any) {
		payload, err := encodeRecord(seq, typ, body)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	seed(1, walTypeCommit, walCommit{
		Kind: ChangeCreated, Name: "alpha", Revision: 1,
		Object: &Object{Spec: testSpec("alpha"), Revision: 1},
	})
	seed(2, walTypeDeploy, walDeploy{Verb: "canary", Revision: 3, PoPs: []string{"seattle"}})
	seed(3, walTypeAct, walAct{Op: "announce", Key: actKey("alpha", "seattle", "184.164.224.0/24", 1), Fp: "fp"})
	f.Add([]byte{})
	f.Add([]byte("vbgpwal2 not a record"))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 1, walTypeCommit, '{', '}'})
	seed(4, walTypeCommit, walCommit{Kind: ChangeRemoved, Name: "alpha", Revision: 2})
	seed(5, walTypeDeploy, walDeploy{Verb: "rollback", Revision: 1, NewRevision: 3})
	// What strict decoding refuses: a format-1 commit record (it embedded
	// the rendered model), and a record with bytes after its body.
	f.Add(append([]byte{0, 0, 0, 0, 0, 0, 0, 6, walTypeCommit},
		`{"kind":"removed","name":"alpha","revision":2,"model":{"PlatformASN":47065},"note":"removed alpha @2"}`...))
	f.Add(append([]byte{0, 0, 0, 0, 0, 0, 0, 7, walTypeAct},
		`{"op":"withdraw","key":{"Experiment":"alpha","PoP":"seattle","Prefix":"184.164.224.0/24","Version":1}}}`...))

	f.Fuzz(func(t *testing.T, payload []byte) {
		rec, err := DecodeWALRecord(payload)
		if err != nil {
			return
		}
		// Replay switches on the body's type and trusts it to be complete.
		switch body := rec.body.(type) {
		case *walCommit:
			if rec.typ != walTypeCommit || (body.Object == nil) != (body.Kind == ChangeRemoved) {
				t.Fatalf("accepted commit record %+v under type %d", body, rec.typ)
			}
		case *walDeploy:
			if rec.typ != walTypeDeploy {
				t.Fatalf("accepted deploy record under type %d", rec.typ)
			}
		case *walAct:
			if rec.typ != walTypeAct || !body.Key.Prefix.IsValid() {
				t.Fatalf("accepted act record %+v under type %d", body, rec.typ)
			}
		default:
			t.Fatalf("accepted record with body %T under type %d", rec.body, rec.typ)
		}
	})
}
